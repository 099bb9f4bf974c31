"""The key step without the object model.

:func:`repro.profibus.serialization.scan_network` is the one validator
of a network document; :func:`repro.api.keyed_network` keys a request
from it and :func:`repro.api.compute_result` answers an all-int
``analyse`` straight from its rows.  These tests pin that the pass is a
faithful stand-in for the object path: the same fingerprints, the same
error texts, the same payloads, and a daemon miss that builds no model
object at all.
"""

import asyncio
import json
from pathlib import Path
from random import Random

import pytest

from repro import api
from repro.corpus import load_corpus
from repro.fuzz import FAMILIES, generate_instance
from repro.perf.config import analysis_mode_set
from repro.profibus import cycle as cycle_mod
from repro.profibus import serialization
from repro.profibus import ttr as ttr_mod
from repro.profibus import stream as stream_mod
from repro.profibus.serialization import (
    ScenarioFormatError,
    network_doc_fingerprint,
    network_from_dict,
    network_to_dict,
    scan_network,
)
from repro.profibus.stream import MessageStream
from repro.scenarios import factory_cell_network
from repro.service import protocol
from repro.service.server import AnalysisServer

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _corpus_networks():
    return [entry.network() for entry in load_corpus(CORPUS)]


def _shuffled(value, rng):
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffled(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [_shuffled(v, rng) for v in value]
    return value


def _respell(doc, rng):
    """The same network spelled differently: every default written out
    and every object's keys shuffled."""
    doc = json.loads(json.dumps(doc))
    for master in doc["masters"]:
        for stream in master["streams"]:
            stream.setdefault("J", 0)
            stream.setdefault("high_priority", True)
            if "cycle" in stream:
                cycle = stream["cycle"]
                cycle.setdefault("req_payload", 0)
                cycle.setdefault("resp_payload", 0)
                cycle.setdefault("short_ack", False)
                cycle.setdefault("max_retry", None)
    return _shuffled(doc, rng)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    """The pass's canonical document is the ``fingerprint/v1`` form,
    byte for byte, however the document was spelled."""

    INSTANCES_PER_FAMILY = 50

    @staticmethod
    def _assert_identical(net, oracle_of, rng):
        oracle = oracle_of(net)
        expected = network_doc_fingerprint(oracle)
        doc = network_to_dict(net)
        scan = scan_network(doc)
        assert json.dumps(scan.doc) == json.dumps(oracle)  # order included
        assert scan.fingerprint() == expected == net.fingerprint()
        respelled = _respell(doc, rng)
        assert respelled != doc or not net.masters[0].streams
        assert scan_network(respelled).fingerprint() == expected

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_fuzz_family(self, family, asdict_network_doc):
        rng = Random(f"respell:{family}")
        for index in range(self.INSTANCES_PER_FAMILY):
            self._assert_identical(generate_instance(0, family, index),
                                   asdict_network_doc, rng)

    def test_factory_cell_and_every_corpus_network(self, asdict_network_doc):
        rng = Random("respell:corpus")
        networks = _corpus_networks()
        assert networks
        for net in [factory_cell_network()] + networks:
            self._assert_identical(net, asdict_network_doc, rng)

    def test_ttr_override_is_keyed(self):
        net = factory_cell_network()
        request = api.AnalysisRequest(op="analyse",
                                      network=network_to_dict(net),
                                      ttr=net.ttr + 77)
        scan, fingerprint = api.keyed_network(request)
        assert fingerprint == net.with_ttr(net.ttr + 77).fingerprint()
        assert scan.network() == net.with_ttr(net.ttr + 77)


# ---------------------------------------------------------------------------
# errors and payloads: the keyed path against the object path
# ---------------------------------------------------------------------------

def _outcome(fn):
    try:
        return "ok", fn()
    except (api.ApiError, ScenarioFormatError) as exc:
        return type(exc).__name__, str(exc)


def _object_path(request):
    """Parse with ``network_from_dict`` and answer the ``analyse``
    request with ``ttr.analyse`` over the built network."""
    def run():
        try:
            net = network_from_dict(request.network)
        except ScenarioFormatError as exc:
            raise api.ApiError(f"bad network document: {exc}") from exc
        if request.ttr is not None:
            net = net.with_ttr(request.ttr)
        try:
            res = ttr_mod.analyse(net, request.policy,
                                  refined=request.refined)
        except ValueError as exc:
            raise api.ApiError(str(exc)) from exc
        payload = {
            "policy": request.policy, "refined": request.refined,
            "ttr": res.ttr, "tcycle": res.tcycle,
            "schedulable": res.schedulable,
            "streams": [{"master": sr.master, "stream": sr.stream.name,
                         "R": sr.R, "D": sr.stream.D,
                         "schedulable": sr.schedulable, "slack": sr.slack}
                        for sr in res.per_stream],
        }
        return json.dumps(api.AnalysisResult(
            op="analyse", fingerprint=net.fingerprint(),
            schedulable=res.schedulable, payload=payload).to_dict())
    return _outcome(run)


def _keyed_path(request):
    def run():
        scan, fingerprint = api.keyed_network(request)
        return json.dumps(api.compute_result(
            request, scan, fingerprint).to_dict())
    return _outcome(run)


def _assert_same(request):
    keyed = _keyed_path(request)
    assert keyed == _object_path(request)
    return keyed


#: the malformed documents of the serialization and service tests
MALFORMED = [
    {"masters": "x"},
    {"masters": [], "bogus": 1},
    {"phy": {}},
    {"masters": []},
    {"masters": [{"address": 1, "streams": [{"name": "s", "T": 100,
                                             "dealine": 50}]}]},
    {"masters": [{"address": 1}], "phy": {"baudrate": 9600}},
    {"masters": [{"address": 1, "streams": [{"name": "s", "T": 0}]}]},
    {"masters": [{"address": 200}]},
    {"masters": [{"address": 1, "streams": [{"name": "s", "T": -5}]}]},
    {"masters": [{"address": 1}], "phy": {"tsl": 1}},
    {"masters": [{"address": 1}], "slaves": [{"name": "x"}]},
    {"masters": [{"name": "m"}]},
    {"masters": [{"address": 1}], "slaves": [{"address": 1}]},
    {"masters": [{"address": 1, "streams": [[1, 2]]}]},
    {"masters": [{"address": 1}], "slaves": [[1, 2]]},
    {"masters": [{"address": 1, "streams": {"s": 1}}]},
    {"masters": [{"address": 1, "streams": 5}]},
    {"masters": [{"address": 1}], "slaves": 3},
    {"masters": [{"address": 1, "streams": [
        {"name": "s", "T": 100, "cycle": {"req_payload": "x"}}]}]},
    {"masters": [{"address": 1, "streams": [
        {"name": "s", "T": 100, "cycle": {"max_retry": "x"}}]}]},
    {"masters": [{"address": 1, "streams": [
        {"name": "s", "T": 100, "high_priority": "no"}]}]},
    {"masters": [{"address": 1, "streams": [
        {"name": "s", "T": 100, "D": True}]}]},
    {"masters": [{"address": 1, "streams": [
        {"name": "s", "T": 100}, {"name": "s", "T": 200}]}]},
    {"masters": [{"address": 1}], "ttr": 0},
]

#: replacement values for the seeded single-field mutations
VALUES = [0, -1, 1, 2, 126, 127, 500, 1.5, 2.0, "x", "", True, False, None,
          [], [1, 2], {}, {"bogus": 1}, 10**7]


def _locations(doc):
    """Every ``(container, key)`` of a document a mutation may touch."""
    out = [(doc, key) for key in ("phy", "ttr", "masters", "slaves", "bogus")]
    out += [(doc["phy"], key) for key in doc["phy"]]
    for master in doc["masters"]:
        out += [(master, key) for key in ("address", "name", "streams", "bogus")]
        for stream in master["streams"]:
            out += [(stream, key) for key in ("name", "T", "D", "J",
                                              "high_priority", "C_bits",
                                              "cycle", "bogus")]
            cycle = stream.get("cycle", {})
            out += [(cycle, key) for key in ("req_payload", "resp_payload",
                                             "short_ack", "max_retry")]
    for slave in doc.get("slaves", []):
        out += [(slave, key) for key in ("address", "name")]
    return out


def _mutated(doc, rng):
    doc = json.loads(json.dumps(doc))
    container, key = rng.choice(_locations(doc))
    if key in container and rng.random() < 0.15:
        del container[key]
    else:
        container[key] = json.loads(json.dumps(rng.choice(VALUES)))
    return doc


def _valid_docs():
    docs = [network_to_dict(factory_cell_network())]
    docs += [network_to_dict(generate_instance(0, family, index))
             for family in sorted(FAMILIES) for index in range(3)]
    return docs


class TestErrorParity:
    """Every document the object path rejects, the keyed path rejects
    with the same text; every document it accepts gives the same
    result document."""

    @pytest.mark.parametrize("doc", MALFORMED,
                             ids=[f"malformed-{i}" for i in range(len(MALFORMED))])
    def test_malformed_documents(self, doc):
        outcome = _assert_same(api.AnalysisRequest(op="analyse", network=doc))
        assert outcome[0] == "ApiError"

    def test_seeded_single_field_mutations(self):
        rng = Random("keyed-documents:mutations")
        bases = _valid_docs()
        kinds = set()
        for n in range(500):
            doc = _mutated(rng.choice(bases), rng)
            request = api.AnalysisRequest(op="analyse", network=doc,
                                          policy=("fcfs", "dm", "edf")[n % 3])
            kinds.add(_assert_same(request)[0])
        assert kinds == {"ok", "ApiError"}  # both sides of the rule seen


# ---------------------------------------------------------------------------
# payload parity
# ---------------------------------------------------------------------------

def _parity_networks():
    nets = [factory_cell_network()] + _corpus_networks()
    nets += [generate_instance(0, family, index)
             for family in sorted(FAMILIES) for index in range(6)]
    return nets


class TestPayloadParity:
    """An all-int ``analyse`` answered from the rows is byte-equal to
    the object path and to the generic reference."""

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("with_ttr", [False, True])
    def test_analyse_payloads(self, refined, with_ttr):
        answered_from_rows = 0
        for net in _parity_networks():
            doc = network_to_dict(net)
            ttr = None
            if with_ttr:
                ttr = net.ring_latency() + (net.ttr or 0) // 2 + 1
            for policy in ("fcfs", "dm", "edf"):
                request = api.AnalysisRequest(op="analyse", network=doc,
                                              policy=policy, ttr=ttr,
                                              refined=refined)
                keyed = _assert_same(request)
                with analysis_mode_set("generic"):
                    generic = _outcome(lambda: json.dumps(
                        api.execute(request).to_dict()))
                assert keyed == generic
                if keyed[0] == "ok":
                    answered_from_rows += 1
        assert answered_from_rows > 100

    def test_ttr_below_ring_latency_is_the_same_error(self):
        net = factory_cell_network()
        request = api.AnalysisRequest(op="analyse",
                                      network=network_to_dict(net),
                                      ttr=net.ring_latency() - 1)
        kind, text = _assert_same(request)
        assert kind == "ApiError" and "ring latency" in text

    def test_declined_documents_take_the_object_path(self):
        """A float attribute or an unframable cycle spec builds the
        network and answers as today."""
        doc = network_to_dict(factory_cell_network())
        floats = json.loads(json.dumps(doc))
        floats["masters"][0]["streams"][0]["T"] += 0.5
        unframable = json.loads(json.dumps(doc))
        unframable["masters"][0]["streams"][0]["cycle"] = {"req_payload": 300}
        assert _assert_same(api.AnalysisRequest(op="analyse",
                                                network=floats))[0] == "ok"
        kind, text = _assert_same(api.AnalysisRequest(op="analyse",
                                                      network=unframable))
        assert kind == "ApiError" and "exceeds maximum" in text


# ---------------------------------------------------------------------------
# work counts of a daemon miss
# ---------------------------------------------------------------------------

def _serve(request_docs):
    """Replies of a real daemon to ``request_docs``, sent in order over
    one connection."""
    async def main():
        server = AnalysisServer(port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for n, doc in enumerate(request_docs):
            writer.write(protocol.encode(
                protocol.request_envelope("analyse", doc, n)))
            await writer.drain()
            replies.append(protocol.decode_line(await reader.readline()))
        writer.close()
        await server.stop()
        await server.serve_until_stopped()
        return replies

    return asyncio.run(main())


def _spec_keys(doc):
    return {tuple(sorted(stream.get("cycle", {}).items()))
            for master in doc["masters"] for stream in master["streams"]
            if "C_bits" not in stream}


class TestDaemonMissWork:
    @pytest.mark.parametrize("net", [
        factory_cell_network(),
        generate_instance(0, "multi-master-ring", 1),
        generate_instance(0, "retry-prone", 2),
    ], ids=["factory-cell", "multi-master-ring", "retry-prone"])
    def test_analyse_miss_builds_no_model_objects(self, net, monkeypatch):
        counts = {"parse": 0, "streams": 0, "cycle_time": 0}
        real_parse = serialization.network_from_dict
        real_init = MessageStream.__init__
        real_cycle_time = cycle_mod.cycle_time

        def parse(doc):
            counts["parse"] += 1
            return real_parse(doc)

        def init(self, *args, **kwargs):
            counts["streams"] += 1
            real_init(self, *args, **kwargs)

        def cycle_time(spec, phy):
            counts["cycle_time"] += 1
            return real_cycle_time(spec, phy)

        monkeypatch.setattr(serialization, "network_from_dict", parse)
        monkeypatch.setattr(MessageStream, "__init__", init)
        monkeypatch.setattr(cycle_mod, "cycle_time", cycle_time)
        monkeypatch.setattr(stream_mod, "cycle_time", cycle_time)
        doc = network_to_dict(net)
        request = api.AnalysisRequest(op="analyse", network=doc,
                                      policy="dm").to_dict()
        (reply,) = _serve([request])
        assert reply["ok"] and reply["cached"] is False
        assert counts["parse"] == 0
        assert counts["streams"] == 0
        assert counts["cycle_time"] <= len(_spec_keys(doc))
        monkeypatch.undo()
        assert reply["result"] == api.execute_request_doc(request)
