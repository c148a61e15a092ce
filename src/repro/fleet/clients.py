"""Client models: how a shard's request stream is generated.

The serving layer's arrival profiles are *open loop*: the request rate
is fixed regardless of how the system responds, so past saturation the
queue grows without bound and latency diverges.  Saturation-throughput
measurement needs the complement — a *closed-loop* population of
clients, each cycling request → response → think time, whose issue rate
self-limits as the system slows down.  Both shapes are rows of
:data:`CLIENT_MODELS`, beside (not replacing) the arrival profiles: the
``open_loop`` model delegates to whatever arrival profile the sweep
names, while ``closed_loop`` drives the shard's event loop dynamically.

The closed-loop population is sized from the offered-load knob: with
think time ``Z = think_factor × S`` (``S`` the mean service demand) and
``C`` cores, ``N = load × C × (1 + think_factor)`` clients offer
``N × S / (Z + S) = load × C`` request-streams of work — the same
nominal load the open-loop profiles offer — so one ``--load`` axis
sweeps both models comparably, and ``load > 1`` drives a shard past
saturation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.registry import Registry


@dataclass(frozen=True)
class ClientModel:
    """One request-generation shape.

    Attributes:
        closed_loop: True when clients wait for their response (and a
            think time) before issuing again; False for a fixed-rate
            arrival process precomputed from an arrival profile.
    """

    closed_loop: bool


def closed_loop_population(load: float, num_cores: int, think_factor: float) -> int:
    """Client count offering ``load`` on ``num_cores`` (at least one).

    Derived from the machine-repairman identity ``N = load × C × (1 +
    think_factor)``: with exponential think time ``think_factor × S``
    each client contributes ``S / (Z + S)`` core-streams of demand.
    """
    return max(1, int(round(load * num_cores * (1.0 + think_factor))))


CLIENT_MODELS: Registry[ClientModel] = Registry(
    "client model",
    (
        (
            "open_loop",
            ClientModel(closed_loop=False),
            "fixed-rate arrivals precomputed from the sweep's arrival profile",
        ),
        (
            "closed_loop",
            ClientModel(closed_loop=True),
            "think-time clients that wait for each response (self-limiting at saturation)",
        ),
    ),
)
