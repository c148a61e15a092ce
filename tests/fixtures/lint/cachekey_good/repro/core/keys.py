"""Good fixture: every field reaches its digest or sits in the table."""

import hashlib
import json
from dataclasses import dataclass, fields

CACHE_KEY_EXCLUSIONS = {
    "RunRequest": {
        "service_cycles": "derived deterministically from the other fields",
    },
    "ShardRequest": {
        "service_cycles": "derived deterministically from the other fields",
    },
}


def service_cache_key(policy, config, seed, *, load, load_profile):
    payload = {
        "policy": policy,
        "config": config,
        "seed": seed,
        "load": load,
        "load_profile": load_profile,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class RunRequest:
    benchmark: str
    instructions: int
    seed: int
    service_cycles: dict

    def cache_key(self):
        payload = {
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "seed": self.seed,
        }
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    variants: tuple
    instructions: int

    def requests(self):
        return [
            RunRequest(name, self.instructions, 7, {}) for name in self.variants
        ]


def request_cache_key(request, kind, exclusions):
    document = {"kind": kind}
    for field in fields(request):
        if field.name in exclusions:
            continue
        document[field.name] = getattr(request, field.name)
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


class KindedRequest:
    kind = "shard"

    def cache_key(self):
        return request_cache_key(
            self, self.kind, CACHE_KEY_EXCLUSIONS.get(type(self).__name__, {})
        )


@dataclass(frozen=True)
class ShardRequest(KindedRequest):
    shard: int
    tenants: tuple
    service_cycles: dict
