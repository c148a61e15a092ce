"""Wire codec: requests and result envelopes over JSON documents.

The daemon's HTTP API, the CLI's args->request path, and ``--remote``
all stand on two promises tested here:

* every request kind round-trips through ``to_wire`` /
  ``request_from_wire`` exactly (canonical spellings) or
  cache-key-identically (other variant spellings and ``MitigationSet`` values,
  which canonicalise to spec strings on encode);
* decoding is strict — unknown kinds, unknown fields, extra top-level
  keys, and version skew are loud :class:`WireError`\\ s, never silent
  reinterpretation.
"""

import json

import pytest

from repro.analysis.engine import EvaluationSettings
from repro.analysis.store import ResultStore
from repro.api import (
    WIRE_VERSION,
    FleetRequest,
    ScenarioRequest,
    ServiceRequest,
    Session,
    SweepRequest,
    WireError,
    WorkloadRequest,
    request_from_wire,
    result_from_wire,
    result_to_wire,
)
from repro.core.config import MI6Config
from repro.core.mitigations import parse_spec
from repro.core.serialization import run_to_dict

#: One canonically spelled instance of each kind, with non-default
#: values on representative fields so the round trip is not vacuous.
CANONICAL_REQUESTS = [
    WorkloadRequest(variant="FLUSH+MISS", benchmark="mcf", instructions=4000, seed=7),
    SweepRequest(
        variants=("BASE", "F+P+M+A"), benchmarks=("gcc", "mcf"), seeds=(1, 2), instructions=3000
    ),
    ScenarioRequest(
        scenarios=("prime_probe",), variants=("BASE", "PART"), seeds=(3,), num_cores=4
    ),
    ServiceRequest(
        policies=("fifo",), variants=("BASE",), loads=(0.5, 0.9), seeds=(5,), num_tenants=6
    ),
    FleetRequest(
        variants=("BASE",), loads=(0.4,), seeds=(11,), num_shards=2, queue_depth=8
    ),
]


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "request_value", CANONICAL_REQUESTS, ids=lambda r: r.wire_kind
    )
    def test_canonical_round_trip_is_exact(self, request_value):
        document = request_value.to_wire()
        assert document["wire_version"] == WIRE_VERSION
        assert document["kind"] == request_value.wire_kind
        assert request_from_wire(document) == request_value

    @pytest.mark.parametrize(
        "request_value", CANONICAL_REQUESTS, ids=lambda r: r.wire_kind
    )
    def test_documents_survive_json(self, request_value):
        document = request_value.to_wire()
        recovered = json.loads(json.dumps(document))
        assert request_from_wire(recovered) == request_value
        # Encoding is a pure function: re-encoding the decoded request
        # reproduces the document byte for byte.
        assert json.dumps(
            request_from_wire(recovered).to_wire(), sort_keys=True
        ) == json.dumps(document, sort_keys=True)

    def test_variant_spellings_canonicalise_to_spec_strings(self):
        request = SweepRequest(variants=(parse_spec("base"), "flush+part+miss+arb"))
        document = request.to_wire()
        assert document["fields"]["variants"] == ["BASE", "F+P+M+A"]
        decoded = request_from_wire(document)
        assert decoded.variants == ("BASE", "F+P+M+A")
        # Equivalent, not ``==``: each spelling became the canonical
        # string, and both expand to the same fully-specified engine
        # requests (hence the same cache keys).
        settings = EvaluationSettings(instructions=2000, seed=1)
        assert decoded.resolve(settings).requests() == request.resolve(settings).requests()

    def test_workload_config_round_trips(self):
        request = WorkloadRequest(benchmark="gcc", config=MI6Config(), instructions=2000)
        decoded = request_from_wire(json.loads(json.dumps(request.to_wire())))
        assert decoded.config == request.config

    def test_defaults_apply_for_omitted_fields(self):
        decoded = request_from_wire(
            {"wire_version": WIRE_VERSION, "kind": "sweep", "fields": {}}
        )
        assert decoded == SweepRequest()


class TestRequestStrictness:
    def test_version_mismatch_rejected(self):
        document = SweepRequest().to_wire()
        document["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version mismatch"):
            request_from_wire(document)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="unknown request kind"):
            request_from_wire(
                {"wire_version": WIRE_VERSION, "kind": "banquet", "fields": {}}
            )

    @pytest.mark.parametrize(
        "request_value", CANONICAL_REQUESTS, ids=lambda r: r.wire_kind
    )
    def test_unknown_field_rejected_for_every_kind(self, request_value):
        document = request_value.to_wire()
        document["fields"]["turbo"] = True
        with pytest.raises(WireError, match="unknown field"):
            request_from_wire(document)

    def test_unknown_top_level_key_rejected(self):
        document = SweepRequest().to_wire()
        document["priority"] = "high"
        with pytest.raises(WireError, match="unknown wire document key"):
            request_from_wire(document)

    def test_missing_top_level_key_rejected(self):
        document = SweepRequest().to_wire()
        del document["fields"]
        with pytest.raises(WireError, match="missing key"):
            request_from_wire(document)

    def test_non_object_document_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            request_from_wire([1, 2, 3])

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("workload", "warm_up", "no"),
            ("workload", "seed", True),
            ("workload", "seed", "7"),
            ("workload", "instructions", 2000.0),
            ("workload", "variant", ["FLUSH", "MISS"]),
            ("workload", "benchmark", None),
            ("workload", "config", "BASE"),
            ("sweep", "seeds", "12"),
            ("sweep", "variants", "BASE"),
            ("sweep", "benchmarks", [1, 2]),
            ("scenario", "num_cores", 4.0),
            ("service", "loads", [True]),
            ("service", "requests", "40"),
            ("fleet", "slo_factor", "8"),
            ("fleet", "think_factor", None),
        ],
        ids=lambda value: value if isinstance(value, str) else type(value).__name__,
    )
    def test_mistyped_field_rejected(self, kind, name, value):
        document = {"wire_version": WIRE_VERSION, "kind": kind, "fields": {name: value}}
        with pytest.raises(WireError, match=f"bad value for {kind!r} field {name!r}"):
            request_from_wire(document)

    def test_float_fields_keep_ints_as_sent(self):
        # An int where a float is declared is accepted unchanged, so a
        # document spelling a load as 1 keeps the key it always had.
        document = ServiceRequest(loads=(1, 0.5)).to_wire()
        decoded = request_from_wire(json.loads(json.dumps(document)))
        assert decoded.loads == (1, 0.5)
        assert isinstance(decoded.loads[0], int)
        fleet = request_from_wire(
            {"wire_version": WIRE_VERSION, "kind": "fleet", "fields": {"slo_factor": 3}}
        )
        assert fleet.slo_factor == 3 and isinstance(fleet.slo_factor, int)

    def test_malformed_variant_spec_rejected(self):
        document = SweepRequest().to_wire()
        document["fields"]["variants"] = ["BASE", "WARP"]
        with pytest.raises(WireError, match="bad value for 'sweep' field 'variants'"):
            request_from_wire(document)


class TestResultEnvelope:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(ResultStore.in_memory())

    def _round_trip(self, result, settings=None):
        document = json.loads(json.dumps(result_to_wire(result)))
        return result_from_wire(document, settings=settings)

    def test_sweep_envelope_bit_identical_modulo_wall_time(self, session):
        request = SweepRequest(
            variants=("BASE", "FLUSH"), benchmarks=("gcc",), seeds=(1,), instructions=2000
        )
        result = session.run(request)
        decoded = self._round_trip(result)
        local_doc, wire_doc = result_to_wire(result), result_to_wire(decoded)
        local_doc.pop("wall_time_seconds")
        wire_doc.pop("wall_time_seconds")
        assert json.dumps(local_doc, sort_keys=True) == json.dumps(wire_doc, sort_keys=True)
        # Keyed accessors keep working on the decoded side.
        assert decoded.overhead_percent("FLUSH", "gcc", 1) == result.overhead_percent(
            "FLUSH", "gcc", 1
        )
        assert [entry.provenance.cache_key for entry in decoded] == [
            entry.provenance.cache_key for entry in result
        ]

    def test_scenario_envelope_round_trips(self, session):
        result = session.run(
            ScenarioRequest(scenarios=("prime_probe",), variants=("BASE",), seeds=(1,))
        )
        decoded = self._round_trip(result)
        assert [outcome.to_dict() for outcome in decoded.outcomes] == [
            outcome.to_dict() for outcome in result.outcomes
        ]

    def test_service_envelope_round_trips(self, session):
        result = session.run(
            ServiceRequest(
                policies=("fifo",),
                variants=("BASE",),
                loads=(0.5,),
                seeds=(1,),
                num_cores=2,
                num_tenants=2,
                requests=6,
                instructions=300,
            )
        )
        decoded = self._round_trip(result)
        assert [outcome.to_dict() for outcome in decoded.service_outcomes] == [
            outcome.to_dict() for outcome in result.service_outcomes
        ]

    def test_fleet_envelope_round_trips(self, session):
        result = session.run(
            FleetRequest(
                variants=("BASE",),
                loads=(0.5,),
                seeds=(1,),
                num_shards=2,
                shard_cores=2,
                num_tenants=2,
                requests=6,
                instructions=300,
            )
        )
        decoded = self._round_trip(result)
        assert [outcome.to_dict() for outcome in decoded.fleet_outcomes] == [
            outcome.to_dict() for outcome in result.fleet_outcomes
        ]

    def test_workload_envelope_round_trips(self, session):
        result = session.run(WorkloadRequest(benchmark="gcc", instructions=2000, seed=1))
        decoded = self._round_trip(result)
        assert run_to_dict(decoded.value) == run_to_dict(result.value)
        assert decoded.provenance == result.provenance

    def test_envelope_strictness(self, session):
        result = session.run(WorkloadRequest(benchmark="gcc", instructions=2000, seed=1))
        document = result_to_wire(result)
        document["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version mismatch"):
            result_from_wire(document)
        document = result_to_wire(result)
        document["verdict"] = "fast"
        with pytest.raises(WireError, match="unknown"):
            result_from_wire(document)
