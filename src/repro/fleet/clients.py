"""Client models: how a shard's request stream is generated.

The serving layer's arrival profiles are *open loop*: the request rate
is fixed regardless of how the system responds, so past saturation the
queue grows without bound and latency diverges.  Saturation-throughput
measurement needs the complement — a *closed-loop* population of
clients, each cycling request → response → think time, whose issue rate
self-limits as the system slows down.  Both shapes are registered here
as client models, beside (not replacing) the arrival-profile registry:
the ``open_loop`` model delegates to whatever arrival profile the sweep
names, while ``closed_loop`` drives the shard's event loop dynamically.

The closed-loop population is sized from the offered-load knob: with
think time ``Z = think_factor × S`` (``S`` the mean service demand) and
``C`` cores, ``N = load × C × (1 + think_factor)`` clients offer
``N × S / (Z + S) = load × C`` request-streams of work — the same
nominal load the open-loop profiles offer — so one ``--load`` axis
sweeps both models comparably, and ``load > 1`` drives a shard past
saturation by construction.

Models are registered by unconditional top-level
:func:`register_client_model` calls (``registry-hygiene`` lint rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ClientModel:
    """One registered request-generation shape.

    Attributes:
        closed_loop: True when clients wait for their response (and a
            think time) before issuing again; False for a fixed-rate
            arrival process precomputed from an arrival profile.
    """

    closed_loop: bool


_MODELS: Dict[str, ClientModel] = {}
_MODEL_DESCRIPTIONS: Dict[str, str] = {}


def register_client_model(name: str, model: ClientModel, description: str) -> None:
    """Register a client model under ``name``."""
    key = name.strip()
    if not key:
        raise ConfigurationError("client-model name must be non-empty")
    if key in _MODELS:
        raise ConfigurationError(f"client model {name!r} already registered")
    _MODELS[key] = model
    _MODEL_DESCRIPTIONS[key] = description


def client_model_names() -> List[str]:
    """All registered client-model names, in presentation order."""
    return list(_MODELS)


def client_model_description(name: str) -> str:
    """One-line description of a registered client model."""
    return _MODEL_DESCRIPTIONS[name]


def client_model(name: str) -> ClientModel:
    """The registered model for ``name``."""
    try:
        return _MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown client model {name!r} (expected one of: "
            f"{', '.join(client_model_names())})"
        ) from None


def closed_loop_population(load: float, num_cores: int, think_factor: float) -> int:
    """Client count offering ``load`` on ``num_cores`` (at least one).

    Derived from the machine-repairman identity ``N = load × C × (1 +
    think_factor)``: with exponential think time ``think_factor × S``
    each client contributes ``S / (Z + S)`` core-streams of demand.
    """
    return max(1, int(round(load * num_cores * (1.0 + think_factor))))


register_client_model(
    "open_loop",
    ClientModel(closed_loop=False),
    "fixed-rate arrivals precomputed from the sweep's arrival profile",
)
register_client_model(
    "closed_loop",
    ClientModel(closed_loop=True),
    "think-time clients that wait for each response (self-limiting at saturation)",
)
