"""Tests for the unified ``repro.api`` facade and the shared result
cache under it."""

import dataclasses
import json
import re

import pytest

from repro import api
from repro.api import AnalysisRequest, AnalysisResult, ApiError
from repro.fuzz import FAMILIES, generate_instance
from repro.perf.cache import ResultCache
from repro.perf.config import analysis_mode_set
from repro.profibus import analyse, network_to_dict
from repro.profibus.network import Master, Network
from repro.profibus.serialization import NetworkScan, scan_network
from repro.scenarios import factory_cell_network


def _net_doc():
    return network_to_dict(factory_cell_network())


def _analyse_request(**overrides):
    kwargs = dict(op="analyse", network=_net_doc())
    kwargs.update(overrides)
    return AnalysisRequest(**kwargs)


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ApiError, match="unknown op"):
            AnalysisRequest(op="frobnicate", network=_net_doc())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ApiError, match="unknown policy"):
            _analyse_request(policy="rm")

    def test_sweep_needs_param(self):
        with pytest.raises(ApiError, match="sweep_param"):
            AnalysisRequest(op="sweep", network=_net_doc())

    def test_sweep_needs_values_except_baud(self):
        with pytest.raises(ApiError, match="sweep_values"):
            AnalysisRequest(op="sweep", network=_net_doc(),
                            sweep_param="ttr")
        # baud defaults to the standard rates
        AnalysisRequest(op="sweep", network=_net_doc(), sweep_param="baud")

    def test_admission_needs_master_and_stream(self):
        with pytest.raises(ApiError, match="admission_master"):
            AnalysisRequest(op="admission", network=_net_doc())
        with pytest.raises(ApiError, match="admission_stream"):
            AnalysisRequest(op="admission", network=_net_doc(),
                            admission_master=9)

    def test_requests_compare_by_value(self):
        assert _analyse_request() == _analyse_request()
        assert _analyse_request() != _analyse_request(policy="edf")

    def test_request_and_result_are_frozen(self):
        # value-keyed caches hold these objects; a field assignment
        # after construction must fail at the assignment itself
        request = _analyse_request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.policy = "edf"
        result = api.execute(request)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.schedulable = not result.schedulable
        assert request == _analyse_request()


class TestTransportForms:
    def test_to_dict_omits_defaults(self):
        doc = _analyse_request().to_dict()
        assert set(doc) == {"schema", "op", "network"}

    def test_round_trip_all_fields(self):
        request = AnalysisRequest(
            op="sweep", network=_net_doc(), policies=("dm", "edf"),
            ttr=4000, sweep_param="ttr", sweep_values=(1000, 2000),
        )
        doc = json.loads(json.dumps(request.to_dict()))
        assert AnalysisRequest.from_dict(doc) == request

    def test_from_dict_rejects_unknown_keys(self):
        doc = _analyse_request().to_dict()
        doc["polcy"] = "dm"
        with pytest.raises(ApiError, match="unknown request key"):
            AnalysisRequest.from_dict(doc)

    def test_from_dict_rejects_wrong_schema(self):
        doc = _analyse_request().to_dict()
        # lint: disable=REP003 — deliberately drifted tag: the test
        # proves from_dict rejects it
        doc["schema"] = "profibus-rt/api/v0"
        with pytest.raises(ApiError, match="unsupported request schema"):
            AnalysisRequest.from_dict(doc)

    def test_from_dict_rejects_a_mode_key(self):
        # v2 dropped the engine knob: a request still carrying it is an
        # unknown key, named in the error
        doc = _analyse_request().to_dict()
        doc["mode"] = "generic"
        with pytest.raises(ApiError, match=r"unknown request key.*'mode'"):
            AnalysisRequest.from_dict(doc)

    def test_from_dict_rejects_v1(self):
        assert api.API_SCHEMA == "profibus-rt/api/v2"
        for extra in ({}, {"mode": "fast"}):
            doc = dict(_analyse_request().to_dict(), **extra)
            # lint: disable=REP003 — the retired tag: from_dict must
            # refuse every v1 document
            doc["schema"] = "profibus-rt/api/v1"
            with pytest.raises(ApiError, match="unsupported request schema"):
                AnalysisRequest.from_dict(doc)

    def test_request_has_no_mode_field(self):
        with pytest.raises(TypeError):
            AnalysisRequest(op="analyse", network=_net_doc(), mode="fast")

    def test_result_round_trip(self):
        result = api.execute(_analyse_request())
        doc = json.loads(json.dumps(result.to_dict()))
        assert AnalysisResult.from_dict(doc) == result


class TestAnalyse:
    def test_matches_compute_core(self):
        net = factory_cell_network()
        result = api.analyse_network(net, policy="dm")
        core = analyse(net, "dm")
        assert result.schedulable == core.schedulable
        rows = {(r["master"], r["stream"]): r["R"]
                for r in result.payload["streams"]}
        for sr in core.per_stream:
            assert rows[(sr.master, sr.stream.name)] == sr.R

    def test_ttr_override(self):
        with_override = api.analyse_network(factory_cell_network(), ttr=5000)
        assert with_override.payload["ttr"] == 5000

    def test_bad_network_is_api_error(self):
        with pytest.raises(ApiError, match="bad network document"):
            api.execute(AnalysisRequest(op="analyse", network={"bogus": 1}))


class TestSweep:
    def test_rows_and_csv_match_compute_core(self):
        from repro.profibus.sweep import rows_to_csv, ttr_sweep

        net = factory_cell_network()
        result = api.sweep_network(net, "ttr", (2000, 3000))
        rows = ttr_sweep(net, (2000, 3000))
        assert result.payload["csv"] == rows_to_csv(rows)
        assert len(result.payload["rows"]) == len(rows)


def _sweep_doc(param, values):
    return {"schema": api.API_SCHEMA, "op": "sweep", "network": _net_doc(),
            "sweep_param": param, "sweep_values": values}


class TestFieldTypes:
    """A wrong-typed request field is an ``ApiError`` (the daemon's
    ``bad-request``) at request construction: never a ``TypeError``
    from the analysis, and never silently accepted."""

    @pytest.mark.parametrize("overrides,field", [
        ({"ttr": "x"}, "ttr"),
        ({"ttr": 5000.5}, "ttr"),
        ({"ttr": True}, "ttr"),
        ({"ttr": 0}, "ttr"),
        ({"ttr": -4000}, "ttr"),
        ({"refined": "yes"}, "refined"),
        ({"refined": 1}, "refined"),
        ({"policies": 5}, "policies"),
        ({"policies": "dm"}, "policies"),
        ({"policies": [["dm"]]}, "policy"),
        ({"policies": [3]}, "policy"),
        ({"op": "admission", "admission_master": "3",
          "admission_stream": {"name": "new", "T": 120_000}},
         "admission_master"),
        ({"op": "admission", "admission_master": True,
          "admission_stream": {"name": "new", "T": 120_000}},
         "admission_master"),
        ({"op": "sweep", "sweep_param": "ttr", "sweep_values": 5},
         "sweep_values"),
    ], ids=["ttr-string", "ttr-float", "ttr-bool", "ttr-zero",
            "ttr-negative", "refined-string", "refined-int",
            "policies-int", "policies-string", "policies-nested",
            "policies-int-entry", "admission-master-string",
            "admission-master-bool", "sweep-values-int"])
    def test_rejected_from_a_document(self, overrides, field):
        doc = dict(_analyse_request().to_dict(), **overrides)
        with pytest.raises(ApiError, match=field):
            api.execute_request_doc(doc)

    def test_well_typed_fields_accepted(self):
        doc = dict(_analyse_request().to_dict(), ttr=5000, refined=True,
                   policies=["dm", "edf"])
        result = api.execute_request_doc(doc)
        assert result["payload"]["tcycle"] > 5000
        request = AnalysisRequest.from_dict(doc)
        assert request.policies == ("dm", "edf")
        assert request.refined is True


class TestSweepValues:
    """A bad grid value is the caller's fault: an ``ApiError`` (the
    daemon's ``bad-request``), never an ``internal`` error from deep in
    the scaling arithmetic."""

    @pytest.mark.parametrize("param,values", [
        ("deadline-scale", [float("inf")]),
        ("deadline-scale", [float("nan")]),
        ("deadline-scale", [True]),
        ("ttr", [float("inf")]),
        ("ttr", [float("-inf")]),
        ("ttr", ["x"]),
        ("ttr", [None]),
        ("baud", [float("inf")]),
        ("baud", [[9600]]),
    ], ids=["scale-inf", "scale-nan", "scale-true", "ttr-inf",
            "ttr-minus-inf", "ttr-string", "ttr-null", "baud-inf",
            "baud-list"])
    def test_rejected_at_request_construction(self, param, values):
        with pytest.raises(ApiError, match="sweep_values"):
            api.execute_request_doc(_sweep_doc(param, values))

    def test_huge_deadline_factor_clamps_every_deadline_to_t(self):
        # D·1e308 overflows to inf; the comparison with T runs first
        huge = api.execute_request_doc(_sweep_doc("deadline-scale", [1e308]))
        at_t = api.execute_request_doc(_sweep_doc("deadline-scale", [1e6]))
        assert ([dict(r, value=None) for r in huge["payload"]["rows"]]
                == [dict(r, value=None) for r in at_t["payload"]["rows"]])

    def test_baud_past_float_range_is_a_bad_request(self):
        with pytest.raises(ApiError):
            api.execute_request_doc(_sweep_doc("baud", [10 ** 400]))

    def test_finite_numbers_accepted(self):
        from fractions import Fraction

        request = AnalysisRequest(op="sweep", network=_net_doc(),
                                  sweep_param="deadline-scale",
                                  sweep_values=(1, 0.5, Fraction(3, 4)))
        assert request.sweep_values == (1, 0.5, Fraction(3, 4))


class TestAdmission:
    STREAM = {"name": "new-sensor", "T": 120_000, "D": 60_000,
              "cycle": {"req_payload": 0, "resp_payload": 8}}

    def test_harmless_stream_admitted_with_headroom(self):
        result = api.admission_check(factory_cell_network(), 2, self.STREAM)
        payload = result.payload
        assert payload["admitted"] is True
        assert result.schedulable is True
        assert payload["broken_streams"] == []
        assert payload["headroom"]["max_feasible_ttr"] is not None
        assert 0 < payload["headroom"]["deadline_tightening_limit"] <= 1

    def test_joining_stream_appears_in_after(self):
        result = api.admission_check(factory_cell_network(), 2, self.STREAM)
        after = {(r["master"], r["stream"])
                 for r in result.payload["after"]["streams"]}
        before = {(r["master"], r["stream"])
                  for r in result.payload["before"]["streams"]}
        joined = after - before
        assert len(joined) == 1
        assert next(iter(joined))[1] == "new-sensor"

    def test_hostile_stream_rejected_with_broken_list(self):
        hog = {"name": "hog", "T": 20_000, "D": 4_000,
               "cycle": {"req_payload": 128, "resp_payload": 128}}
        result = api.admission_check(factory_cell_network(), 1, hog)
        assert result.payload["admitted"] is False
        assert result.payload["headroom"]["max_feasible_ttr"] is None

    def test_fresh_master_joins_ring(self):
        result = api.admission_check(factory_cell_network(), 9, self.STREAM)
        masters = {r["master"] for r in result.payload["after"]["streams"]}
        assert "M9" in masters

    def test_duplicate_stream_name_rejected(self):
        dup = dict(self.STREAM, name="io-scan-a")
        with pytest.raises(ApiError, match="already has a stream"):
            api.admission_check(factory_cell_network(), 2, dup)


def _joined_doc(doc, address, stream):
    """``doc`` with ``stream`` appended to the master at ``address``, or
    to a fresh master there at the end of the ring."""
    doc = json.loads(json.dumps(doc))
    for master in doc["masters"]:
        if master["address"] == address:
            master["streams"].append(stream)
            break
    else:
        doc["masters"].append({"address": address, "streams": [stream]})
    return doc


def _answer(fn):
    """``fn()`` as JSON, or the text of the :class:`ApiError` it raises."""
    try:
        return json.dumps(fn())
    except ApiError as exc:
        return f"ApiError: {exc}"


def _admission_cases():
    """``(document, policy, address, stream)`` over the factory cell and
    two instances per fuzz family: a light and a heavy candidate, each
    joining the first master and a fresh address."""
    nets = [factory_cell_network()] + [
        generate_instance(0, family, index)
        for family in sorted(FAMILIES) for index in range(2)]
    cases = []
    for k, net in enumerate(nets):
        doc = network_to_dict(net)
        taken = {m.address for m in net.masters} | {
            s.address for s in net.slaves}
        fresh = min(set(range(127)) - taken)
        period = 4 * net.masters[0].streams[0].T
        light = {"name": "candidate", "T": period, "D": period,
                 "cycle": {"req_payload": 4, "resp_payload": 4}}
        heavy = {"name": "candidate", "T": 3_000, "D": 1_000,
                 "cycle": {"req_payload": 64, "resp_payload": 64}}
        for address in (net.masters[0].address, fresh):
            for stream in (light, heavy):
                cases.append((doc, ("fcfs", "dm", "edf")[len(cases) % 3],
                              address, stream))
    return cases


class TestAdmissionRoute:
    """An admission's ``before`` and ``after`` are the ``analyse``
    payloads of the original and the joined document, its faults read
    as before, and it builds at most one network: the joined one, for an
    admitted stream's headroom searches."""

    @pytest.mark.parametrize("mode", ["fast", "generic"])
    def test_before_and_after_are_analyse_payloads(self, mode):
        seen = set()
        with analysis_mode_set(mode):
            for doc, policy, address, stream in _admission_cases():
                joined = _joined_doc(doc, address, stream)
                admission = _answer(lambda: api.admission_check(
                    doc, address, stream, policy=policy).payload)
                before, after = (_answer(lambda d=d: api.analyse_network(
                    d, policy=policy).payload) for d in (doc, joined))
                assert api._admit_stream(scan_network(doc), address,
                                         stream).doc == \
                    scan_network(joined).doc
                if admission.startswith("ApiError"):
                    # a fresh master can lift the ring latency past the
                    # TTR: the joined document's analysis fails alike
                    assert admission == after != before
                    seen.add("error")
                    continue
                payload = json.loads(admission)
                assert json.dumps(payload["before"]) == before
                assert json.dumps(payload["after"]) == after
                seen.add(payload["admitted"])
        assert seen == {True, False, "error"}

    @pytest.mark.parametrize("mode", ["fast", "generic"])
    @pytest.mark.parametrize("address, stream, message", [
        (2, {"name": "io-scan-a", "T": 120_000},
         "master 2 already has a stream named 'io-scan-a'"),
        (127, {"name": "new", "T": 120_000},
         "PROFIBUS addresses are 0..126"),
        (-1, {"name": "new", "T": 120_000},
         "PROFIBUS addresses are 0..126"),
        (None, {"name": "new", "T": 120_000},
         "duplicate station addresses"),
        (2, {"name": "new", "T": 0},
         "bad admission stream: bad stream 'new': stream 'new': "
         "T must be > 0"),
        (9, {"name": "new", "T": 120_000, "C_bits": -3},
         "bad admission stream: bad stream 'new': stream 'new': "
         "C_bits must be > 0"),
        (2, {"name": "new", "T": 120_000, "dealine": 5},
         "bad admission stream: unknown key(s) ['dealine'] in stream "
         "'new'; allowed: ['C_bits', 'D', 'J', 'T', 'cycle', "
         "'high_priority', 'name']"),
        (2, {"T": 120_000}, "bad admission stream: missing key(s) "
                            "['name'] in stream '?'"),
    ], ids=["duplicate-name", "address-127", "address-negative",
            "slave-address", "zero-period", "negative-c-bits",
            "unknown-key", "no-name"])
    def test_faults_read_as_before(self, mode, address, stream, message):
        net = factory_cell_network()
        if address is None:
            address = net.slaves[0].address
        with analysis_mode_set(mode), pytest.raises(ApiError) as info:
            api.admission_check(net, address, stream)
        assert str(info.value) == message

    def test_model_rules_give_the_join_its_messages(self):
        net = factory_cell_network()
        with pytest.raises(ValueError) as info:
            Master(address=127)
        with pytest.raises(ApiError, match=re.escape(str(info.value))):
            api.admission_check(net, 127, {"name": "new", "T": 120_000})
        with pytest.raises(ValueError) as info:
            Network(masters=net.masters + (Master(net.slaves[0].address),),
                    slaves=net.slaves)
        with pytest.raises(ApiError, match=re.escape(str(info.value))):
            api.admission_check(net, net.slaves[0].address,
                                {"name": "new", "T": 120_000})

    def test_networks_built(self, monkeypatch):
        built = []
        real = NetworkScan.network

        def network(scan):
            built.append(scan)
            return real(scan)

        monkeypatch.setattr(NetworkScan, "network", network)
        doc = _net_doc()
        light = {"name": "new", "T": 120_000, "D": 60_000}
        heavy = {"name": "hog", "T": 20_000, "D": 4_000,
                 "cycle": {"req_payload": 128, "resp_payload": 128}}
        api.analyse_network(doc)
        assert built == []
        assert api.admission_check(doc, 1, heavy).payload["admitted"] is False
        assert built == []
        with pytest.raises(ApiError):
            api.admission_check(doc, 2, dict(light, name="io-scan-a"))
        assert built == []
        admitted = api.admission_check(doc, 2, light).payload
        assert admitted["admitted"] is True
        assert admitted["headroom"]["max_feasible_ttr"] is not None
        # the headroom searches read the joined scan's columns
        assert built == []
        joined = [row["stream"] for row in admitted["after"]["streams"]
                  if row["master"] == "plc"]  # the master at address 2
        assert joined[-1] == "new"


class TestCaching:
    def test_identical_requests_hit(self):
        cache = ResultCache()
        result1, hit1 = api.execute_cached(_analyse_request(), cache=cache)
        result2, hit2 = api.execute_cached(_analyse_request(), cache=cache)
        assert (hit1, hit2) == (False, True)
        assert result1 == result2
        assert cache.snapshot()["hits"] == 1

    def test_value_equal_spellings_collide(self):
        # same content, different document spelling (key order)
        doc_a = _net_doc()
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["masters"] = [dict(reversed(list(m.items())))
                            for m in doc_b["masters"]]
        cache = ResultCache()
        _, miss = api.execute_cached(
            AnalysisRequest(op="analyse", network=doc_a), cache=cache)
        _, hit = api.execute_cached(
            AnalysisRequest(op="analyse", network=doc_b), cache=cache)
        assert (miss, hit) == (False, True)

    def test_different_coordinates_miss(self):
        cache = ResultCache()
        api.execute_cached(_analyse_request(), cache=cache)
        _, hit_policy = api.execute_cached(_analyse_request(policy="edf"),
                                           cache=cache)
        _, hit_ttr = api.execute_cached(_analyse_request(ttr=5000),
                                        cache=cache)
        assert hit_policy is False and hit_ttr is False

    def test_no_cache_recomputes(self):
        result1, hit1 = api.execute_cached(_analyse_request())
        result2, hit2 = api.execute_cached(_analyse_request())
        assert (hit1, hit2) == (False, False)
        assert result1 == result2

    def test_cached_and_fresh_results_identical(self):
        cache = ResultCache()
        fresh = api.execute(_analyse_request())
        api.execute(_analyse_request(), cache=cache)
        cached = api.execute(_analyse_request(), cache=cache)
        assert cached.to_dict() == fresh.to_dict()


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes a
        cache.put("c", 3)                   # evicts b
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["size"] == 2 == len(cache)

    def test_get_or_compute(self):
        cache = ResultCache()
        calls = []
        hit, value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert (hit, value) == (False, 42)
        hit, value = cache.get_or_compute("k", lambda: calls.append(1) or 43)
        assert (hit, value) == (True, 42)
        assert len(calls) == 1

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.snapshot()["hits"] == 1


class TestExecuteRequestDoc:
    def test_dict_in_dict_out(self):
        doc = api.execute_request_doc(_analyse_request().to_dict())
        assert doc["schema"] == api.API_SCHEMA
        assert doc == api.execute(_analyse_request()).to_dict()

    def test_result_doc_json_stable(self):
        doc = api.execute_request_doc(_analyse_request().to_dict())
        assert json.loads(json.dumps(doc)) == doc
