"""Bad fixture: digest gaps in key functions and a request dataclass."""

import hashlib
import json
from dataclasses import dataclass, fields

CACHE_KEY_EXCLUSIONS = {
    "service_cache_key": {
        "seed": "",
    },
    "GhostRequest": {
        "payload": "stale: no such owner ships a cache_key here",
    },
}


def service_cache_key(policy, config, seed, *, load, load_profile):
    payload = {
        "policy": policy,
        "config": config,
        "load": load,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def request_cache_key(request, kind, exclusions):
    document = {"kind": kind}
    for field in fields(request):
        if field.name in exclusions or field.name == "load":
            continue
        document[field.name] = getattr(request, field.name)
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


@dataclass(frozen=True)
class RunRequest:
    benchmark: str
    instructions: int
    seed: int

    def cache_key(self):
        payload = {
            "benchmark": self.benchmark,
            "instructions": self.instructions,
        }
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    variants: tuple
    instructions: int

    def requests(self):
        return [RunRequest(name, 1000, 7) for name in self.variants]
