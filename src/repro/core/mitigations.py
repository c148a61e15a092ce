"""Composable mitigations: the open ablation space of Section 7.

The paper evaluates seven fixed processor variants, but its defences —
FLUSH, PART, MISS, ARB, NONSPEC — are independent knobs on the machine
configuration.  This module makes each defence a first-class *mitigation*
(a named transform over :class:`~repro.core.config.MI6Config`) and
replaces the closed ``Variant`` if-chain with composition:

* a :class:`Mitigation` is a config transform with a canonical name, a
  short alias (the paper's single letters), and a description; the five
  of them are one fixed table whose order is the canonical order;
* a :class:`MitigationSet` is a canonicalised combination of mitigations —
  the unit the engine, CLI, and scenario matrix sweep over.  Construction
  canonicalises to table order, so ``FLUSH+MISS`` and ``MISS+FLUSH``
  are the *same* set, produce the same configuration, and hash to the
  same content-addressed cache key;
* :func:`parse_spec` parses any combination spec (``FLUSH+MISS``,
  ``f+p+m+a``, ``BASE``) into a :class:`MitigationSet`, opening the full
  2^5 composition lattice to every front end;
* named variants — the paper's ``BASE`` and ``F+P+M+A`` — are *declared
  compositions*, not special cases: they only pin display names (and
  hence cache-key identity) to the paper's spelling.

The paper's seven evaluation variants are spec strings over these tables
(``"BASE"``, ``"FLUSH"``, ..., ``"F+P+M+A"``); every front end names a
variant that way or by a :class:`MitigationSet`.  A mitigation name
holds no ``+`` (the spec separator) or ``_`` (which specs rewrite to
``+``), and no name, alias or composition name repeats another;
``tests/test_mitigations.py`` checks both over the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import MI6Config

ConfigTransform = Callable[[MI6Config], MI6Config]


@dataclass(frozen=True)
class Mitigation:
    """One defence: a named transform over the machine config.

    Attributes:
        name: Canonical name (``FLUSH``, ``PART``, ...).
        description: One-line description shown by ``repro-bench list``.
        transform: Pure function applying the defence to a configuration.
        alias: Optional short alias (the paper's single letters), also
            accepted by :func:`parse_spec`.
    """

    name: str
    description: str
    transform: ConfigTransform
    alias: Optional[str] = None


#: The five paper mitigations (Sections 7.1-7.5).  Their order is the
#: canonical composition order used for naming and cache keys.
_MITIGATIONS: Dict[str, Mitigation] = {
    mitigation.name: mitigation
    for mitigation in (
        Mitigation(
            "FLUSH",
            "flush per-core microarchitectural state on every context switch",
            lambda config: replace(config, flush_on_context_switch=True),
            alias="F",
        ),
        Mitigation(
            "PART",
            "set-partition the LLC with the DRAM-region index function",
            lambda config: replace(config, set_partition_llc=True),
            alias="P",
        ),
        Mitigation(
            "MISS",
            "partition and size the LLC MSHRs (12 entries, 4 banks)",
            lambda config: replace(config, partition_mshrs=True),
            alias="M",
        ),
        Mitigation(
            "ARB",
            "round-robin LLC pipeline arbiter (+N/2 cycles of latency)",
            lambda config: replace(config, llc_arbiter=True),
            alias="A",
        ),
        Mitigation(
            "NONSPEC",
            "execute memory instructions non-speculatively",
            lambda config: replace(config, nonspec_memory=True),
            alias="N",
        ),
    )
}
#: Alias -> canonical name (single letters, lowercase handled by parsing).
_ALIASES: Dict[str, str] = {
    mitigation.alias: name for name, mitigation in _MITIGATIONS.items() if mitigation.alias
}
#: Declared composition name -> its members in canonical order.  These
#: names pin the canonical name, and so the cache-key identity, of the
#: paper's two named variants.
_COMPOSITIONS: Dict[str, Tuple[str, ...]] = {
    "BASE": (),
    "F+P+M+A": ("FLUSH", "PART", "MISS", "ARB"),
}


def known_mitigations() -> List[Mitigation]:
    """All mitigations, in canonical order."""
    return list(_MITIGATIONS.values())


def known_compositions() -> Dict[str, Tuple[str, ...]]:
    """Declared composition names and their member mitigations."""
    return dict(_COMPOSITIONS)


def _resolve_token(token: str, spec_text: str) -> Tuple[str, ...]:
    """Resolve one ``+``-separated token to its member mitigations."""
    key = token.strip().upper()
    if key in _MITIGATIONS:
        return (key,)
    if key in _ALIASES:
        return (_ALIASES[key],)
    if key in _COMPOSITIONS:
        return _COMPOSITIONS[key]
    known = ", ".join(_MITIGATIONS)
    named = ", ".join(name for name in _COMPOSITIONS)
    raise ValueError(
        f"unknown mitigation {token!r} in spec {spec_text!r} "
        f"(known mitigations: {known}; named variants: {named})"
    )


def _canonical_members(names: Iterable[str]) -> Tuple[str, ...]:
    requested = set()
    for name in names:
        requested.update(_resolve_token(str(name), str(name)))
    return tuple(name for name in _MITIGATIONS if name in requested)


@dataclass(frozen=True)
class MitigationSet:
    """A canonicalised combination of mitigations.

    ``mitigations`` is always stored deduplicated in canonical order, so
    two sets built from differently-ordered specs compare (and hash)
    equal and name themselves identically — the property that makes
    ``FLUSH+MISS`` and ``MISS+FLUSH`` share one cache key.  The
    constructor canonicalises (and validates) whatever it is given, so
    the invariant cannot be bypassed by constructing directly.
    """

    mitigations: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        canonical = _canonical_members(self.mitigations)
        if canonical != self.mitigations:
            object.__setattr__(self, "mitigations", canonical)

    @property
    def name(self) -> str:
        """Canonical display name (also the config/cache-key name).

        A declared composition's name wins (``BASE``, ``F+P+M+A``);
        otherwise members join with ``+`` in canonical order.
        """
        for declared, members in _COMPOSITIONS.items():
            if members == self.mitigations:
                return declared
        return "+".join(self.mitigations)

    def __contains__(self, item: str) -> bool:
        return item.strip().upper() in self.mitigations

    def apply(self, base: Optional[MI6Config] = None) -> MI6Config:
        """Build the machine configuration for this combination.

        Starts from ``base`` (Figure 4 defaults if omitted), stamps the
        canonical name, and applies each member transform in canonical
        order.
        """
        config = base or MI6Config()
        config = replace(config, name=self.name)
        for name in self.mitigations:
            config = _MITIGATIONS[name].transform(config)
        return config


def parse_spec(text: str) -> MitigationSet:
    """Parse a variant spec into a :class:`MitigationSet`.

    Accepts any ``+``-separated combination of mitigation names, their
    single-letter aliases, and declared composition names, in any case
    and order: ``FLUSH+MISS``, ``miss+flush``, ``F+P+M+A``, ``f_p_m_a``
    (underscores as separators), ``BASE``.  Unknown names raise
    :class:`ValueError` listing the valid mitigations.
    """
    normalized = text.strip().upper()
    if not normalized:
        raise ValueError("empty mitigation spec")
    # Underscores are separators too (F_P_M_A).
    if normalized in _COMPOSITIONS or normalized in _MITIGATIONS or normalized in _ALIASES:
        tokens = [normalized]
    else:
        candidate = normalized.replace("_", "+")
        tokens = candidate.split("+")
    members = set()
    for token in tokens:
        if not token:
            raise ValueError(f"malformed mitigation spec {text!r}")
        members.update(_resolve_token(token, text))
    return MitigationSet(tuple(name for name in _MITIGATIONS if name in members))


# ----------------------------------------------------------------------
# VariantLike: the one spec vocabulary every front end accepts

#: Anything that names a machine-configuration variant: a composed
#: ``MitigationSet`` or a spec string (``"FLUSH+MISS"``).
VariantLike = Union[MitigationSet, str]


def as_spec(value: VariantLike) -> MitigationSet:
    """Coerce any :data:`VariantLike` to a canonical :class:`MitigationSet`."""
    if isinstance(value, MitigationSet):
        return value
    if isinstance(value, str):
        return parse_spec(value)
    raise TypeError(f"cannot interpret {value!r} as a variant spec")


def spec_name(value: VariantLike) -> str:
    """Canonical configuration name of any :data:`VariantLike`."""
    return as_spec(value).name


def config_for_spec(spec: VariantLike, base: Optional[MI6Config] = None) -> MI6Config:
    """Machine configuration for any variant spec (the composed path)."""
    return as_spec(spec).apply(base)
