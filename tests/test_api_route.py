"""The ``repro.api`` sweep and admission route over the column reader.

A sweep or an admission reads the scan's columns
(:meth:`repro.profibus.serialization.NetworkScan.columns`) and builds no
``Network``; the generic reference and the documents the reader
declines build theirs from the scan, once.  These tests hold every
reply of that route, error texts included, to the generic reference,
and count the network builds and cycle-length derivations it makes.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro import api
from repro.corpus import load_corpus
from repro.fuzz import FAMILIES, generate_instance
from repro.perf.config import analysis_mode_set
from repro.profibus.serialization import (NetworkScan, network_to_dict,
                                          scan_network)
from repro.profibus.stream import MessageStream
from repro.scenarios import factory_cell_network
from repro.schemas import API_SCHEMA
from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _low_float(doc):
    """``doc`` with a low-priority stream of non-int period on its first
    master: the reader still takes it (only ``C`` enters ``Tdel``)."""
    doc = json.loads(json.dumps(doc))
    doc["masters"][0]["streams"].append(
        {"name": "bulk-float", "T": 400_000.5, "high_priority": False})
    return doc


def _high_float(doc):
    """``doc`` with a high-priority stream of non-int jitter: the reader
    declines it."""
    doc = json.loads(json.dumps(doc))
    doc["masters"][0]["streams"].append(
        {"name": "odd", "T": 90_000, "D": 80_000, "J": 0.5})
    return doc


@lru_cache(maxsize=None)
def _networks():
    """``(label, document)``: the corpus, the factory cell, two instances
    per fuzz family and the factory cell with a float low-priority T."""
    docs = [(entry.entry_id, entry.network_doc)
            for entry in load_corpus(CORPUS)]
    cell = network_to_dict(factory_cell_network())
    docs.append(("factory-cell", cell))
    docs += [(f"{family}:{index}",
              network_to_dict(generate_instance(0, family, index)))
             for family in sorted(FAMILIES) for index in range(2)]
    docs.append(("factory-cell+low-float", _low_float(cell)))
    return tuple(docs)


def _wide(doc):
    """``probe:wide-values`` (2³²-scale periods): the generic iteration
    takes seconds to give up where the kernels diverge."""
    return max(s["T"] for m in doc["masters"] for s in m["streams"]) > 2 ** 32


def _ring(doc):
    return scan_network(doc).columns().ring


def _sweep(doc, param, values, **extra):
    return {"schema": API_SCHEMA, "op": "sweep", "network": doc,
            "sweep_param": param, "sweep_values": values, **extra}


def _admission(doc, address, stream, policy, refined=False, **extra):
    return {"schema": API_SCHEMA, "op": "admission", "network": doc,
            "policy": policy, "refined": refined,
            "admission_master": address, "admission_stream": stream,
            **extra}


def _requests(doc):
    """Every sweep param and admissions of a light, a heavy and a
    fresh-master candidate, plus the error cases: no TTR, a TTR below
    the ring latency, baud 0 and a baud past float range."""
    ring = _ring(doc)
    no_ttr = {k: v for k, v in doc.items() if k != "ttr"}
    address = doc["masters"][0]["address"]
    light = {"name": "joining", "T": 400_000, "D": 300_000}
    heavy = {"name": "hog", "T": 20_000, "D": 4_000,
             "cycle": {"req_payload": 128, "resp_payload": 128}}
    out = [
        _sweep(doc, "ttr", [ring - 1, ring, ring + 0.4, ring + 800,
                            3 * ring + 2.6]),
        _sweep(doc, "deadline-scale", [0.3, 0.7, 1.0, 1.6]),
        _sweep(doc, "baud", []),
        _sweep(doc, "baud", [9_600, 1_500_000, 250]),
        _sweep(doc, "baud", [0]),
        _sweep(doc, "baud", [10 ** 400]),
        _sweep(no_ttr, "ttr", [ring, ring + 800]),
        _sweep(no_ttr, "deadline-scale", [1.0]),
        _sweep(no_ttr, "baud", []),
        _sweep(doc, "deadline-scale", [1.0], ttr=1),
        _sweep(doc, "baud", [], ttr=1),
    ]
    for policy in ("fcfs", "dm", "edf"):
        for refined in (False, True):
            out += [_admission(doc, address, light, policy, refined),
                    _admission(doc, address, heavy, policy, refined),
                    _admission(doc, 99, light, policy, refined)]
        out += [_admission(no_ttr, address, light, policy),
                _admission(doc, address, light, policy, ttr=1)]
    return out


def _reply(doc):
    """The reply document, or the error's type and text."""
    try:
        return json.dumps(api.execute_request_doc(doc), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


class TestFastMatchesGeneric:
    @pytest.mark.parametrize("label", [label for label, _doc in _networks()])
    def test_sweep_and_admission_replies(self, label):
        doc = dict(_networks())[label]
        requests = _requests(doc)
        if _wide(doc):
            # its kernels diverge past the ring latency; only the cheap
            # requests are held to the generic reference
            requests = [r for r in requests if r["op"] == "sweep"
                        and r["sweep_param"] == "deadline-scale"]
        fast = [_reply(r) for r in requests]
        with analysis_mode_set("generic"):
            generic = [_reply(r) for r in requests]
        assert fast == generic
        errors = [reply for reply in fast if not reply.startswith("{")]
        assert all(e.startswith("ApiError: ") for e in errors), errors

    def test_the_error_cases_are_answered_as_errors(self):
        doc = dict(_networks())["factory-cell"]
        replies = {json.dumps(r, sort_keys=True): _reply(r)
                   for r in _requests(doc)}
        ring = _ring(doc)
        texts = set(replies.values())
        assert "ApiError: baud_rate must be positive" in texts
        assert ("ApiError: integer division result too large for a float"
                in texts)
        assert (f"ApiError: TTR=1 is below the no-load ring latency {ring}; "
                f"the Tcycle bound does not apply") in texts
        assert ("ApiError: network.ttr is not set; call with_ttr() or "
                "derive one via repro.profibus.ttr") in texts


class _Counts:
    """``NetworkScan.network`` builds and ``MessageStream.cycle_bits``
    calls made while the counter is installed."""

    def __init__(self, monkeypatch):
        self.builds = 0
        self.cycles = 0
        network, cycle_bits = NetworkScan.network, MessageStream.cycle_bits

        def counted_network(scan):
            self.builds += 1
            return network(scan)

        def counted_cycle_bits(stream, phy):
            self.cycles += 1
            return cycle_bits(stream, phy)

        monkeypatch.setattr(NetworkScan, "network", counted_network)
        monkeypatch.setattr(MessageStream, "cycle_bits", counted_cycle_bits)

    def of(self, doc):
        """``(builds, cycle_bits calls, reply)`` of one request."""
        self.builds = self.cycles = 0
        reply = api.execute_request_doc(doc)
        return self.builds, self.cycles, reply


class TestCallCounts:
    def test_all_int_sweeps_and_admissions_build_nothing(self, monkeypatch):
        counts = _Counts(monkeypatch)
        admitted = 0
        for label, doc in _networks():
            if _wide(doc):
                continue
            ring = _ring(doc)
            address = doc["masters"][0]["address"]
            requests = [
                _sweep(doc, "ttr", [ring - 1, ring + 800]),
                _sweep(doc, "deadline-scale", [0.5, 1.0]),
                _sweep(doc, "baud", [9_600, 1_500_000]),
            ] + [_admission(doc, address, {"name": "joining",
                                           "T": 400_000, "D": 300_000},
                            policy, refined)
                 for policy in ("fcfs", "dm", "edf")
                 for refined in (False, True)]
            for request in requests:
                builds, cycles, reply = counts.of(request)
                assert (builds, cycles) == (0, 0), (label, request["op"])
                if request["op"] == "admission":
                    admitted += reply["payload"]["admitted"]
        assert admitted > 50

    def test_declined_documents_build_once(self, monkeypatch):
        counts = _Counts(monkeypatch)
        cell = network_to_dict(factory_cell_network())
        declined = _high_float(cell)
        assert scan_network(declined).columns() is None
        ring = _ring(cell)
        sweeps = [_sweep(declined, "ttr", [ring - 1, ring + 800]),
                  _sweep(declined, "deadline-scale", [0.5, 1.0]),
                  _sweep(declined, "baud", [9_600, 1_500_000])]
        for request in sweeps:
            assert counts.of(request)[0] == 1
        with analysis_mode_set("generic"):
            for request in [_sweep(cell, "deadline-scale", [1.0])] + sweeps:
                assert counts.of(request)[0] == 1
        # an admission analyses two networks: the base and the joined one
        builds, _cycles, reply = counts.of(_admission(
            declined, 1, {"name": "joining", "T": 400_000, "D": 300_000},
            "dm"))
        assert reply["payload"]["admitted"] and builds == 2

    def test_monitor_builds_once(self, monkeypatch):
        net = factory_cell_network()
        tracer = BusTrace()
        simulate_token_bus(net, 100_000,
                           config=TokenBusConfig(policy="ap-dm",
                                                 tracer=tracer))
        from repro.monitor import trace_doc

        request = {"schema": API_SCHEMA, "op": "monitor",
                   "network": network_to_dict(net), "policy": "dm",
                   "trace": trace_doc(tracer, horizon=100_000)}
        counts = _Counts(monkeypatch)
        assert counts.of(request)[0] == 1
