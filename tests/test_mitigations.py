"""Composable mitigation registry: the paper's spellings and the 2^5 lattice.

The seven paper variants are spec strings over the registry; the cache
keys their configurations hash to are pinned by
``tests/test_golden_jobs.py``.
"""

import pytest

from repro.analysis.engine import (
    EvaluationSettings,
    instructions_for_variant,
    request_for,
)
from repro.core.config import MI6Config
from repro.core.mitigations import (
    MitigationSet,
    as_spec,
    config_for_spec,
    known_compositions,
    known_mitigations,
    parse_spec,
    register_composition,
    register_mitigation,
    spec_name,
)
from repro.core.serialization import config_digest

SMALL = EvaluationSettings(instructions=2500)


class TestPaperVariants:
    def test_f_p_m_a_canonical_name_is_the_paper_spelling(self):
        assert parse_spec("FLUSH+PART+MISS+ARB").name == "F+P+M+A"
        assert config_for_spec("FLUSH+PART+MISS+ARB").name == "F+P+M+A"

    def test_spellings_of_one_variant_share_its_cache_key(self):
        canonical = request_for("F+P+M+A", "hmmer", SMALL)
        for spelling in ("FLUSH+PART+MISS+ARB", "f_p_m_a", parse_spec("arb+miss+part+flush")):
            assert request_for(spelling, "hmmer", SMALL).cache_key() == canonical.cache_key()

    def test_nonspec_truncation_follows_membership(self):
        assert instructions_for_variant("NONSPEC", 10_000) == 5_000
        assert instructions_for_variant("FLUSH+NONSPEC", 10_000) == 5_000
        assert instructions_for_variant("F+P+M+A", 10_000) == 10_000
        assert instructions_for_variant("FLUSH+MISS", 10_000) == 10_000


class TestComposition:
    def test_order_insensitive_sets_and_names(self):
        assert parse_spec("FLUSH+MISS") == parse_spec("MISS+FLUSH")
        assert parse_spec("MISS+FLUSH").name == "FLUSH+MISS"
        assert config_for_spec("FLUSH+MISS") == config_for_spec("MISS+FLUSH")
        assert config_digest(config_for_spec("FLUSH+MISS")) == config_digest(
            config_for_spec("MISS+FLUSH")
        )

    def test_duplicates_collapse(self):
        assert parse_spec("FLUSH+FLUSH+MISS") == parse_spec("FLUSH+MISS")

    def test_aliases_and_case(self):
        assert parse_spec("f+m") == parse_spec("FLUSH+MISS")
        assert parse_spec("F+P+M+A") == parse_spec("flush+part+miss+arb")
        assert parse_spec("f_p_m_a").name == "F+P+M+A"
        assert parse_spec("base") == MitigationSet()

    def test_full_lattice_is_expressible_and_distinct(self):
        names = [m.name for m in known_mitigations()]
        digests = set()
        for mask in range(2 ** len(names)):
            members = [name for bit, name in enumerate(names) if mask & (1 << bit)]
            spec = MitigationSet.of(*members)
            digests.add(config_digest(spec.apply()))
        assert len(digests) == 2 ** len(names)  # 32 distinct configurations

    def test_composed_switches_are_the_union(self):
        config = config_for_spec("PART+ARB+NONSPEC")
        assert config.set_partition_llc
        assert config.llc_arbiter
        assert config.nonspec_memory
        assert not config.flush_on_context_switch
        assert not config.partition_mshrs

    def test_apply_respects_base_config(self):
        base = MI6Config(trap_interval_instructions=9_999)
        config = config_for_spec("FLUSH+MISS", base)
        assert config.trap_interval_instructions == 9_999
        assert config.flush_on_context_switch and config.partition_mshrs


class TestParsing:
    def test_unknown_mitigation_error_names_the_valid_vocabulary(self):
        with pytest.raises(ValueError) as excinfo:
            parse_spec("FLUSH+TURBO")
        message = str(excinfo.value)
        assert "unknown mitigation 'TURBO'" in message
        assert "FLUSH+TURBO" in message  # the full offending spec
        assert "FLUSH, PART, MISS, ARB, NONSPEC" in message
        assert "BASE" in message and "F+P+M+A" in message
        with pytest.raises(ValueError):
            parse_spec("TURBO")

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("")
        with pytest.raises(ValueError):
            parse_spec("FLUSH++MISS")
        with pytest.raises(ValueError):
            parse_spec("+FLUSH")

    def test_as_spec_coerces_every_variant_like(self):
        assert as_spec("f+p+m+a").name == "F+P+M+A"
        assert as_spec("miss+flush").name == "FLUSH+MISS"
        assert as_spec(MitigationSet.of("ARB")).name == "ARB"
        with pytest.raises(TypeError):
            as_spec(42)
        assert spec_name("base") == "BASE"

    def test_membership_and_iteration(self):
        spec = parse_spec("FLUSH+MISS")
        assert "FLUSH" in spec and "miss" in spec and "ARB" not in spec
        assert list(spec) == ["FLUSH", "MISS"]
        assert len(spec) == 2


class TestRegistry:
    def test_registrations_are_guarded(self):
        with pytest.raises(ValueError):
            register_mitigation("FLUSH", "duplicate", lambda config: config)
        with pytest.raises(ValueError):
            register_mitigation("NO+PLUS", "bad name", lambda config: config)
        with pytest.raises(ValueError):
            register_composition("ARB", ["FLUSH"])  # collides with a mitigation
        with pytest.raises(ValueError):
            register_composition("BASE", ["FLUSH"])  # silent redefinition

    def test_raw_constructor_canonicalises(self):
        # Bypassing parse_spec must not bypass the cache-key invariant.
        raw = MitigationSet(("MISS", "FLUSH"))
        assert raw == parse_spec("FLUSH+MISS")
        assert raw.name == "FLUSH+MISS"
        assert config_digest(raw.apply()) == config_digest(
            parse_spec("MISS+FLUSH").apply()
        )
        with pytest.raises(ValueError):
            MitigationSet(("TURBO",))

    def test_known_compositions_pin_the_paper_names(self):
        compositions = known_compositions()
        assert compositions["BASE"] == ()
        assert compositions["F+P+M+A"] == ("FLUSH", "PART", "MISS", "ARB")

    def test_descriptions_cover_combos(self):
        assert "flush" in parse_spec("FLUSH").describe()
        text = parse_spec("FLUSH+MISS").describe()
        assert "flush" in text and "MSHR" in text
