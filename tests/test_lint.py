"""Tests for the ``repro.lint`` invariant linter.

Covers every rule family against good/bad fixture trees under
``tests/fixtures/lint/``, the suppression and baseline mechanisms, the
``repro lint`` CLI surface, the shipped-tree self-check, and mutation
checks on the shipped tree: letting the field-driven cache-key builder
drop a ``ServiceRunRequest`` field, or stripping the sanctioned-tap
annotations from ``mem/cache.py``, must turn the lint red.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    build_context,
    load_baseline,
    rule_names,
    run_rules,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def lint_fixture(case, rules=None, baseline=frozenset()):
    root = FIXTURES / case
    context = build_context([root], root=root)
    return run_rules(context, rules=rules, baseline=baseline)


def lint_source(tmp_path, relpath, text, rules=None):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    context = build_context([tmp_path], root=tmp_path)
    return run_rules(context, rules=rules)


def messages(report, rule=None):
    return [
        finding.message
        for finding in report.findings
        if rule is None or finding.rule == rule
    ]


# ----------------------------------------------------------------------
# Rule families against the fixture trees


class TestDeterminismRule:
    def test_bad_fixture_flags_every_violation_kind(self):
        report = lint_fixture("determinism_bad", rules=["determinism"])
        found = "\n".join(messages(report))
        assert "import of 'random'" in found
        assert "import of 'time'" in found
        assert "RNG internals" in found
        assert "unordered set" in found
        assert "id()" in found
        assert "environment read" in found

    def test_findings_carry_position_and_rule(self):
        report = lint_fixture("determinism_bad", rules=["determinism"])
        for finding in report.findings:
            assert finding.rule == "determinism"
            assert finding.path.endswith("repro/mem/model.py")
            assert finding.line >= 1

    def test_good_fixture_is_clean(self):
        report = lint_fixture("determinism_good", rules=["determinism"])
        assert report.findings == []


class TestFastpathParityRule:
    def test_bad_fixture_flags_structure_gaps(self):
        report = lint_fixture("parity_bad", rules=["fastpath-parity"])
        found = "\n".join(messages(report))
        assert "'_orphan_fast' has no reference twin" in found
        assert "'_drain_reference' is never dispatched to" in found
        assert "kernel.bonus" in found
        assert "never consults slow_path_enabled()" in found

    def test_good_fixture_is_clean(self):
        report = lint_fixture("parity_good", rules=["fastpath-parity"])
        assert report.findings == []


class TestCacheKeyRule:
    def test_bad_fixture_flags_digest_gaps(self):
        report = lint_fixture("cachekey_bad", rules=["cache-key"])
        found = "\n".join(messages(report))
        assert "parameter 'load_profile' never reaches the digest" in found
        assert "RunRequest.seed is not consumed by cache_key()" in found
        assert "SweepSpec.instructions is not consumed by requests()" in found
        assert "empty justification" in found
        assert "unknown owner 'GhostRequest'" in found
        assert "request_cache_key() drops fields by a test other than its exclusions" in found

    def test_good_fixture_is_clean(self):
        report = lint_fixture("cachekey_good", rules=["cache-key"])
        assert report.findings == []


class TestRegistryHygieneRule:
    def test_bad_fixture_flags_conditional_lazy_and_foreign(self):
        report = lint_fixture("registry_bad", rules=["registry-hygiene"])
        found = messages(report)
        assert len(found) == 3
        top_level = [m for m in found if "unconditional top-level" in m]
        foreign = [m for m in found if "outside its owning module" in m]
        assert len(top_level) == 2  # conditional + lazy, both in the owner
        assert len(foreign) == 1

    def test_good_fixture_is_clean(self):
        report = lint_fixture("registry_good", rules=["registry-hygiene"])
        assert report.findings == []


class TestObsPurityRule:
    def test_obs_name_in_cache_key_function_is_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/analysis/keys.py",
            "from repro.obs.metrics import global_registry\n"
            "\n"
            "def service_cache_key(spec):\n"
            "    global_registry().counter('repro_keys_total').inc()\n"
            "    return str(spec)\n",
            rules=["obs-purity"],
        )
        found = messages(report, "obs-purity")
        assert len(found) == 1
        assert "obs name 'global_registry'" in found[0]
        assert "'service_cache_key'" in found[0]

    def test_wall_import_in_cycle_span_package_is_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/service/clock.py",
            "from repro.obs.trace import wall_time\n",
            rules=["obs-purity"],
        )
        found = messages(report, "obs-purity")
        assert len(found) == 1
        assert "wall-clock reader 'wall_time'" in found[0]

    def test_wall_attribute_read_in_cycle_span_package_is_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/fleet/clock.py",
            "def now(clock):\n"
            "    return clock.perf_counter()\n",
            rules=["obs-purity"],
        )
        found = messages(report, "obs-purity")
        assert len(found) == 1
        assert "wall-clock read ('perf_counter')" in found[0]

    def test_wall_read_in_sim_span_argument_is_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/mem/spans.py",
            "def record(tracer, wall_time):\n"
            "    tracer.sim_span('execute', 'core', 0, wall_time())\n",
            rules=["obs-purity"],
        )
        found = messages(report, "obs-purity")
        assert len(found) == 1
        assert "flows into a sim_span argument" in found[0]

    def test_cycle_denominated_spans_are_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/service/sim.py",
            "from repro.obs.trace import active_tracer\n"
            "\n"
            "def complete(start_cycle, end_cycle, tenant):\n"
            "    tracer = active_tracer()\n"
            "    if tracer is not None:\n"
            "        tracer.sim_span('execute', 'core', start_cycle, end_cycle,\n"
            "                        tenant=tenant)\n",
            rules=["obs-purity"],
        )
        assert messages(report, "obs-purity") == []

    def test_obs_package_itself_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/obs/trace.py",
            "import time\n"
            "\n"
            "def wall_cache_key():\n"
            "    return time.perf_counter()\n",
            rules=["obs-purity"],
        )
        assert messages(report, "obs-purity") == []


# ----------------------------------------------------------------------
# Suppression mechanism

TAP_LINE = "tap = policy._rng._random\n"


class TestSuppressions:
    def test_inline_annotation_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n"
            "    tap = policy._rng._random  # repro: allow[determinism]: tap\n"
            "    return tap\n",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_line_above_annotation_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n"
            "    # repro: allow[determinism]: sanctioned tap\n" + "    " + TAP_LINE,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_block_annotation_covers_first_code_line(self, tmp_path):
        report = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n"
            "    # repro: allow[determinism]: a justification long enough\n"
            "    # to spill onto a second comment line before the code.\n"
            "    " + TAP_LINE,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        report = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n"
            "    tap = policy._rng._random  # repro: allow[cache-key]: wrong\n"
            "    return tap\n",
        )
        assert len(report.findings) == 1
        assert report.suppressed == 0

    def test_star_suppresses_any_rule(self, tmp_path):
        report = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n"
            "    tap = policy._rng._random  # repro: allow[*]: blanket\n"
            "    return tap\n",
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# Baseline mechanism


class TestBaseline:
    def test_roundtrip_accepts_existing_findings(self, tmp_path):
        report = lint_fixture("determinism_bad")
        assert report.findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, report.findings)
        accepted = load_baseline(baseline_file)
        assert len(accepted) == len({f.fingerprint() for f in report.findings})

        rerun = lint_fixture("determinism_bad", baseline=accepted)
        assert rerun.findings == []
        assert rerun.baselined == len(report.findings)

    def test_baseline_survives_line_shifts(self, tmp_path):
        source = (
            "def bind(policy):\n"
            "    tap = policy._rng._random\n"
            "    return tap\n"
        )
        first = lint_source(tmp_path, "repro/mem/tap.py", source)
        accepted = frozenset(f.fingerprint() for f in first.findings)
        shifted = "# a new leading comment shifts every line number\n\n" + source
        (tmp_path / "repro/mem/tap.py").write_text(shifted)
        context = build_context([tmp_path], root=tmp_path)
        rerun = run_rules(context, baseline=accepted)
        assert rerun.findings == []
        assert rerun.baselined == 1

    def test_new_finding_is_not_masked_by_baseline(self, tmp_path):
        first = lint_source(
            tmp_path,
            "repro/mem/tap.py",
            "def bind(policy):\n    tap = policy._rng._random\n    return tap\n",
        )
        accepted = frozenset(f.fingerprint() for f in first.findings)
        (tmp_path / "repro/mem/tap.py").write_text(
            "import random\n"
            "def bind(policy):\n    tap = policy._rng._random\n    return tap\n"
        )
        context = build_context([tmp_path], root=tmp_path)
        rerun = run_rules(context, baseline=accepted)
        assert len(rerun.findings) == 1
        assert "import of 'random'" in rerun.findings[0].message
        assert rerun.baselined == 1


# ----------------------------------------------------------------------
# CLI surface


class TestLintCli:
    def test_bad_fixture_exits_one(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", str(FIXTURES / "determinism_bad")]) == 1

    def test_good_fixture_exits_zero(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", str(FIXTURES / "determinism_good")]) == 0

    @pytest.mark.parametrize(
        "case",
        ["determinism_bad", "parity_bad", "cachekey_bad", "registry_bad"],
    )
    def test_every_bad_fixture_exits_one(self, monkeypatch, case):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", str(FIXTURES / case)]) == 1

    def test_rule_filter_limits_the_run(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        target = str(FIXTURES / "registry_bad")
        assert cli_main(["lint", "--rule", "determinism", target]) == 0
        assert cli_main(["lint", "--rule", "registry-hygiene", target]) == 1

    def test_unknown_rule_exits_two(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", "--rule", "nonsense", "src"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules_names_all_four_families(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", "--list-rules"]) == 0
        listed = capsys.readouterr().out
        for name in ("determinism", "fastpath-parity", "cache-key", "registry-hygiene"):
            assert name in listed

    def test_json_shape(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = cli_main(["lint", "--json", str(FIXTURES / "determinism_bad")])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["command"] == "lint"
        assert set(document["counts"]) == {
            "files",
            "findings",
            "gating",
            "suppressed",
            "baselined",
        }
        assert set(document["rules"]) == set(rule_names())
        assert document["findings"], "bad fixture must report findings"
        for finding in document["findings"]:
            assert set(finding) >= {"rule", "path", "line", "column", "message"}

    def test_write_baseline_then_rerun_is_clean(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(REPO_ROOT)
        target = str(FIXTURES / "determinism_bad")
        baseline = str(tmp_path / "baseline.json")
        assert cli_main(["lint", "--write-baseline", baseline, target]) == 0
        capsys.readouterr()
        assert cli_main(["lint", "--baseline", baseline, target]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_module_entry_point_runs_lint(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES / "parity_bad")],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 1
        assert "fastpath-parity" in completed.stdout


# ----------------------------------------------------------------------
# Self-check and mutation checks on the shipped tree


def lint_mutated(tmp_path, relpath, text, rules=None):
    return lint_source(tmp_path, relpath, text, rules=rules)


class TestShippedTree:
    def test_shipped_tree_is_lint_clean(self):
        context = build_context([REPO_ROOT / "src"], root=REPO_ROOT)
        report = run_rules(context)
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        # The sanctioned taps and configuration boundaries really are
        # annotated (the rule fires and is suppressed, not skipped).
        assert report.suppressed > 0

    def test_committed_baseline_is_empty(self):
        accepted = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert accepted == frozenset()

    @pytest.mark.parametrize(
        "field",
        [
            "policy",
            "seed",
            "load",
            "load_profile",
            "num_cores",
            "num_tenants",
            "num_requests",
            "instructions",
            "churn_every",
            "config",
        ],
    )
    def test_dropping_a_service_request_field_fails_lint(self, tmp_path, field):
        # The key builder lives in core/serialization.py and the requests
        # handing themselves to it in analysis/engine.py; lint both.
        serialization = (REPO_ROOT / "src/repro/core/serialization.py").read_text()
        engine = (REPO_ROOT / "src/repro/analysis/engine.py").read_text()
        skip = "        if field.name in exclusions:\n"
        entry = '    "ServiceRunRequest": {\n'
        handed = "CACHE_KEY_EXCLUSIONS.get(type(self).__name__, {})"
        assert skip in serialization and entry in engine and handed in engine
        mutations = {
            "builder-test": (
                serialization.replace(skip, skip.replace(":", f" or field.name == {field!r}:")),
                engine,
            ),
            "empty-justification": (
                serialization,
                engine.replace(entry, entry + f'        "{field}": "",\n'),
            ),
            "table-bypass": (
                serialization,
                engine.replace(handed, f'{{**{handed}, "{field}": "derived"}}'),
            ),
        }
        for mutation, (mutated_serialization, mutated_engine) in mutations.items():
            root = tmp_path / mutation
            for relpath, source in (
                ("repro/core/serialization.py", mutated_serialization),
                ("repro/analysis/engine.py", mutated_engine),
            ):
                (root / relpath).parent.mkdir(parents=True, exist_ok=True)
                (root / relpath).write_text(source)
            report = run_rules(build_context([root], root=root), rules=["cache-key"])
            assert any(
                f"{field!r}" in message for message in messages(report)
            ), f"{mutation} dropping {field} must be a cache-key finding"

    def test_stripping_cache_rng_annotations_fails_lint(self, tmp_path):
        source = (REPO_ROOT / "src/repro/mem/cache.py").read_text()
        assert "repro: allow[determinism]" in source
        mutated = source.replace("repro: allow[determinism]", "repro: struck[determinism]")
        report = lint_mutated(
            tmp_path, "repro/mem/cache.py", mutated, rules=["determinism"]
        )
        assert any("RNG internals" in m for m in messages(report))

    def test_stripping_generator_annotations_fails_lint(self, tmp_path):
        source = (REPO_ROOT / "src/repro/workloads/generator.py").read_text()
        assert "repro: allow[determinism]" in source
        mutated = source.replace("repro: allow[determinism]", "repro: struck[determinism]")
        report = lint_mutated(
            tmp_path, "repro/workloads/generator.py", mutated, rules=["determinism"]
        )
        assert any("RNG internals" in m for m in messages(report))
