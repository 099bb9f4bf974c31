"""The daemon's cheap path: replies spliced from stored result bytes,
the spelling key taken from the request line as received, small
``analyse`` misses computed on the event loop under a proven iteration
bound, and non-finite numbers refused with typed errors."""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.corpus import load_corpus
from repro.fuzz import FAMILIES, generate_instance
from repro.perf import kernels
from repro.perf.stats import counters
from repro.profibus.network import Network
from repro.profibus.phy import PhyParameters
from repro.profibus.serialization import network_to_dict, scan_network
from repro.profibus.stream import MessageStream
from repro.scenarios import factory_cell_network
from repro.schemas import API_SCHEMA, SERVICE_SCHEMA
from repro.service import protocol
from repro.service.server import INLINE_ITERATIONS

from test_service import (ServerThread, _base_doc, _cell_trace,
                          _monitor_doc, _sweep_doc)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

IDS = {
    "int": 7,
    "str": "sé☃ \"quoted\" \\ \n\t",
    "float": 2.5,
    "object": {"b": [1, {"d": 2, "c": None}], "a": "x"},
}


def _strict_json(line):
    """``json.loads`` that refuses the ``NaN``/``Infinity`` tokens."""
    def refuse(name):
        raise AssertionError(f"{name} in a reply line")
    return json.loads(line, parse_constant=refuse)


def _raw_line(request_doc, request_id=None, has_id=True):
    """A request line written by a sorted-key, compact client (the
    ``id`` goes first), with the ``id`` written as given."""
    body = protocol.encode_json({"op": request_doc["op"],
                                 "request": request_doc,
                                 "schema": SERVICE_SCHEMA})
    if not has_id:
        return body + b"\n"
    return (b'{"id":' + json.dumps(request_id, separators=(",", ":")).encode()
            + b"," + body[1:] + b"\n")


class RawConnection:
    def __init__(self, srv):
        self.sock = socket.create_connection(srv.address, timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line)
        return self.rfile.readline()

    def close(self):
        self.rfile.close()
        self.sock.close()


# ---------------------------------------------------------------------------
# the reply bytes
# ---------------------------------------------------------------------------

class TestWireFormat:
    RESULT = {"z": [1, None, 2.5], "a": {"y": "é", "b": True}}

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("request_id", list(IDS.values()) + [None],
                             ids=list(IDS) + ["absent"])
    def test_result_line_is_encode_of_result_response(self, request_id,
                                                      cached):
        for op in ("analyse", "sweep", "admission", "monitor"):
            expected = protocol.encode(protocol.result_response(
                request_id, op, self.RESULT, cached, 0.123))
            assert protocol.result_line(
                protocol.encode_json(request_id), op,
                protocol.encode_json(self.RESULT), cached, 0.123,
            ) == expected

    def test_live_replies_are_byte_identical_on_miss_and_hit(self):
        """Each id kind, first as a miss and then as hits: every reply
        line is ``encode(result_response(...))`` of the offline result."""
        offline = api.execute_request_doc(_base_doc())
        sends = [(name, value, True) for name, value in IDS.items()]
        sends.append(("absent", None, False))
        with ServerThread() as srv:
            conn = RawConnection(srv)
            try:
                lines = [(name, value,
                          conn.send(_raw_line(_base_doc(), value, has_id)))
                         for name, value, has_id in sends]
            finally:
                conn.close()
        for position, (name, value, line) in enumerate(lines):
            reply = _strict_json(line)
            assert reply["cached"] is (position > 0), name
            assert reply["id"] == value
            assert line == protocol.encode(protocol.result_response(
                value, "analyse", offline, reply["cached"],
                reply["elapsed_ms"])), name

    def test_non_canonical_envelope_is_answered_through_the_value_key(self):
        """Spaces and another key order defeat the spelling key, not the
        cache: the reply is a hit with the offline result, and a repeat
        of the same bytes is a hit on the spelling."""
        doc = _base_doc()
        offline = api.execute_request_doc(doc)
        envelope = json.dumps({"request": doc, "schema": SERVICE_SCHEMA,
                               "op": "analyse", "id": 3}).encode() + b"\n"
        with ServerThread() as srv:
            with srv.client() as c:
                assert c.analyse(doc).cached is False
            conn = RawConnection(srv)
            try:
                first = _strict_json(conn.send(envelope))
                repeat = _strict_json(conn.send(envelope))
            finally:
                conn.close()
            with srv.client() as c:
                stats = c.stats()
        for reply in (first, repeat):
            assert (reply["ok"], reply["id"], reply["cached"]) == (
                True, 3, True)
            assert reply["result"] == offline
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (2, 1)

    def test_spelling_digest_leaves_out_only_the_id(self):
        doc = _base_doc()
        other = dict(doc, policy="edf")

        def digest(request_doc, request_id, has_id=True):
            line = _raw_line(request_doc, request_id, has_id)
            return protocol.spelling_digest(
                line, protocol.encode_json(request_id))

        assert digest(doc, 1) == digest(doc, "two") == digest(doc, 2.5)
        assert digest(doc, 1) != digest(other, 1)
        # without the prefix the line is hashed whole
        assert digest(doc, None, has_id=False) != digest(doc, None)
        assert digest(doc, None, has_id=False) != digest(doc, 1)

    def test_a_second_id_member_is_answered_with_the_decoded_id(self):
        """``{"id":1,"id":2,…}`` decodes to id 2; after the same rest
        was seen under a leading id of 2, the reply still carries 2."""
        doc = _base_doc()
        offline = api.execute_request_doc(doc)
        rest = b'"id":2,' + _raw_line(doc, has_id=False)[1:]
        with ServerThread() as srv:
            conn = RawConnection(srv)
            try:
                replies = [conn.send(b'{"id":' + prefix + b"," + rest)
                           for prefix in (b"2", b"1", b"1")]
            finally:
                conn.close()
        for reply in replies:
            parsed = _strict_json(reply)
            assert parsed["id"] == 2
            assert reply == protocol.encode(protocol.result_response(
                2, "analyse", offline, parsed["cached"],
                parsed["elapsed_ms"]))
        assert [_strict_json(r)["cached"] for r in replies] == [
            False, True, True]


# ---------------------------------------------------------------------------
# the iteration bound and the routing
# ---------------------------------------------------------------------------

def _bound_documents():
    yield "factory-cell", network_to_dict(factory_cell_network())
    for entry in load_corpus(CORPUS):
        yield entry.entry_id, entry.network_doc
    for family in sorted(FAMILIES):
        for index in range(12):
            yield (f"{family}:{index}",
                   network_to_dict(generate_instance(3, family, index)))


class TestIterationBound:
    def test_counted_iterations_never_exceed_the_bound(self):
        checked = 0
        for label, doc in _bound_documents():
            columns = scan_network(doc).columns()
            if columns is None:
                continue
            for policy in ("fcfs", "dm", "edf"):
                bound = api.iteration_bound(columns, policy)
                if bound is None:
                    continue
                counters.reset()
                for specs in columns.specs:
                    api._master_responses(policy, specs, columns.tcycle())
                assert counters.fast <= bound, (label, policy)
                checked += 1
        counters.reset()
        assert checked > 100

    def test_no_bound_at_or_above_full_utilisation(self):
        assert kernels.iteration_bound("edf", [((100, 100, 0),)], 100) is None
        assert kernels.iteration_bound(
            "dm", [((300, 300, 0),), ((200, 200, 0), (200, 200, 0))],
            100) is None
        assert kernels.iteration_bound(
            "dm", [((300, 300, 0), (201, 201, 0))], 100) is not None
        assert kernels.iteration_bound("fcfs", [((100, 100, 0),)], 100) == 0

    def test_cost_is_linear_in_the_streams(self):
        """The bound runs on the event loop: exact sums over ``lcm(T)``
        took seconds for 16,000 coprime periods."""
        specs = tuple((10**6 + i, 10**6 + i, 0) for i in range(20_000))
        start = time.perf_counter()
        bound = kernels.iteration_bound("dm", [specs], 1)
        assert time.perf_counter() - start < 0.5
        assert bound > INLINE_ITERATIONS

    def test_bound_grows_toward_saturation(self):
        bounds = [kernels.iteration_bound("edf", [((t, t, 0),)], 100)
                  for t in (1000, 200, 120, 101)]
        assert bounds == sorted(bounds) and bounds[0] < bounds[-1]


def _edge_doc(ttr, c_bits, periods, policy="edf"):
    return {
        "schema": API_SCHEMA, "op": "analyse", "policy": policy,
        "network": {"ttr": ttr, "masters": [{"address": 1, "streams": [
            {"name": f"s{i}", "T": t, "C_bits": c_bits}
            for i, t in enumerate(periods)]}]},
    }


class TestRouting:
    def _serve(self, docs):
        with ServerThread() as srv:
            with srv.client() as c:
                replies = [c.request(doc["op"], doc) for doc in docs]
                stats = c.stats()
        return replies, stats["compute"]

    def test_small_analyse_misses_compute_inline(self):
        docs = [dict(_base_doc(), policy=p) for p in ("fcfs", "dm", "edf")]
        replies, compute = self._serve(docs + docs)
        assert compute == {"inline": 3, "executor": 0}
        for doc, reply in zip(docs + docs, replies):
            assert reply.result == api.execute_request_doc(doc)

    def test_other_ops_take_the_executor(self):
        replies, compute = self._serve([_sweep_doc()])
        assert compute == {"inline": 0, "executor": 1}
        assert replies[0].result == api.execute_request_doc(_sweep_doc())

    def test_near_saturation_edf_takes_the_executor(self):
        # tc = 110, U = 220/221
        doc = _edge_doc(100, 10, (221, 221))
        columns = scan_network(doc["network"]).columns()
        assert columns.tcycle() == 110
        assert api.iteration_bound(columns, "edf") > INLINE_ITERATIONS
        replies, compute = self._serve([doc])
        assert compute == {"inline": 0, "executor": 1}
        assert replies[0].result == api.execute_request_doc(doc)

    def test_utilisation_edge_construction_takes_the_executor(self):
        """Two streams with ``T = 2·tc ∓ 1``: ``U = 1 + 1/(4tc² − 1)``,
        inside the kernels' float epsilon at ``tc = 1,000,300``.  The
        exact bound does not exist there; the daemon is shown the same
        construction at ``tc = 110`` (outside the epsilon, so the
        executor answers at once)."""
        tc = 1_000_300
        wide = _edge_doc(10**6, 300, (2 * tc - 1, 2 * tc + 1))
        columns = scan_network(wide["network"]).columns()
        assert columns.tcycle() == tc
        assert api.iteration_bound(columns, "edf") is None
        assert api.iteration_bound(columns, "dm") is None
        docs = [_edge_doc(100, 10, (219, 221), policy)
                for policy in ("dm", "edf")]
        replies, compute = self._serve(docs)
        assert compute == {"inline": 0, "executor": 2}
        for doc, reply in zip(docs, replies):
            assert reply.result == api.execute_request_doc(doc)
            assert reply.result["schedulable"] is False


class TestMonitorKeying:
    def test_ping_is_answered_while_a_monitor_request_is_keyed(
            self, monkeypatch):
        """Keying a ``monitor`` request ingests and hashes its whole
        trace, on the executor: another client's ``ping`` is answered
        while it is parked there, and neither reply changes."""
        doc = _monitor_doc(*_cell_trace())
        offline = api.execute_request_doc(doc)
        keying, release = threading.Event(), threading.Event()
        real_cache_key = api.AnalysisRequest.cache_key

        def parked_cache_key(request, fingerprint):
            if request.op == "monitor":
                keying.set()
                assert release.wait(timeout=20), "test never released keying"
            return real_cache_key(request, fingerprint)

        ping = protocol.encode(protocol.request_envelope("ping", None, 1))
        replies = {}
        with ServerThread() as srv:
            idle = RawConnection(srv)
            try:
                before = idle.send(ping)
                monkeypatch.setattr(api.AnalysisRequest, "cache_key",
                                    parked_cache_key)

                def send_monitor():
                    conn = RawConnection(srv)
                    try:
                        replies["monitor"] = conn.send(_raw_line(doc, 2))
                    finally:
                        conn.close()

                worker = threading.Thread(target=send_monitor)
                worker.start()
                assert keying.wait(timeout=20)
                during = idle.send(ping)
                assert "monitor" not in replies
                release.set()
                worker.join(timeout=20)
                assert not worker.is_alive()
            finally:
                release.set()
                idle.close()
        assert during == before
        assert _strict_json(during)["result"]["pong"] is True
        reply = _strict_json(replies["monitor"])
        assert reply["cached"] is False
        assert replies["monitor"] == protocol.encode(protocol.result_response(
            2, "monitor", offline, False, reply["elapsed_ms"]))


# ---------------------------------------------------------------------------
# NaN and Infinity
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


def _with_stream_value(field, value, policy="edf"):
    doc = _base_doc()
    doc["policy"] = policy
    doc["network"]["masters"][0]["streams"][0][field] = value
    return doc


NON_FINITE_DOCS = {
    "edf-D-nan": (_with_stream_value("D", NAN), "D must be finite"),
    "fcfs-D-nan": (_with_stream_value("D", NAN, "fcfs"), "D must be finite"),
    "dm-D-nan": (_with_stream_value("D", NAN, "dm"), "D must be finite"),
    "T-inf": (_with_stream_value("T", INF), "T must be finite"),
    "J-minus-inf": (_with_stream_value("J", -INF), "J must be finite"),
    "C_bits-nan": (_with_stream_value("C_bits", NAN), "C_bits must be finite"),
}


def _phy_nan():
    doc = _base_doc()
    doc["network"].setdefault("phy", {})["baud_rate"] = NAN
    return doc


def _ttr_inf():
    doc = _base_doc()
    doc["network"]["ttr"] = INF
    return doc


def _admission_nan():
    doc = dict(_base_doc(), op="admission", admission_master=1,
               admission_stream={"name": "new", "T": 100_000, "D": NAN})
    return doc


NON_FINITE_DOCS.update({
    "phy-nan": (_phy_nan(), "baud_rate must be finite"),
    "ttr-inf": (_ttr_inf(), "ttr must be finite"),
    "admission-D-nan": (_admission_nan(), "D must be finite"),
})


class TestNonFinite:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_DOCS))
    def test_api_refuses_with_a_typed_error(self, case):
        doc, message = NON_FINITE_DOCS[case]
        start = time.perf_counter()
        with pytest.raises(api.ApiError, match=message):
            api.execute_request_doc(doc)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("case", sorted(NON_FINITE_DOCS))
    def test_daemon_refuses_with_a_bad_request(self, case):
        doc, message = NON_FINITE_DOCS[case]
        line = (json.dumps({"id": 1, "op": doc["op"], "request": doc,
                            "schema": SERVICE_SCHEMA}) + "\n").encode()
        assert b"NaN" in line or b"Infinity" in line
        with ServerThread() as srv:
            conn = RawConnection(srv)
            try:
                start = time.perf_counter()
                reply = _strict_json(conn.send(line))
                elapsed = time.perf_counter() - start
                after = _strict_json(conn.send(_raw_line(_base_doc(), 2)))
            finally:
                conn.close()
        assert elapsed < 0.1
        assert (reply["ok"], reply["id"]) == (False, 1)
        assert reply["error"]["type"] == "bad-request"
        assert message in reply["error"]["message"]
        assert after["ok"] is True

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity",
                                       b"1e400", b"[1,NaN]",
                                       b'{"k":-1e999}'])
    def test_non_finite_id_is_a_protocol_error(self, token):
        line = _raw_line(_base_doc(), 0).replace(b'{"id":0,',
                                                 b'{"id":' + token + b",")
        with pytest.raises(protocol.ProtocolError, match="NaN or Infinity"):
            protocol.decode_line(line)
        with ServerThread() as srv:
            conn = RawConnection(srv)
            try:
                reply = _strict_json(conn.send(line))
                after = _strict_json(conn.send(_raw_line(_base_doc(), 2)))
            finally:
                conn.close()
        assert (reply["ok"], reply["id"]) == (False, None)
        assert reply["error"]["type"] == "protocol"
        assert (after["ok"], after["id"]) == (True, 2)

    def test_an_id_prefix_before_a_whole_object_is_a_protocol_error(self):
        """A line without an ``id`` is remembered by the digest of all
        its bytes; ``{"id":1,`` followed by that line is not JSON and
        must not be answered from it."""
        body = _raw_line(_base_doc(), has_id=False)
        with ServerThread() as srv:
            conn = RawConnection(srv)
            try:
                first = _strict_json(conn.send(body))
                reply = _strict_json(conn.send(b'{"id":1,' + body))
                again = _strict_json(conn.send(body))
            finally:
                conn.close()
        assert first["ok"] is True
        assert (reply["ok"], reply["id"]) == (False, None)
        assert reply["error"]["type"] == "protocol"
        assert (again["ok"], again["cached"]) == (True, True)

    def test_model_refuses_non_finite_values(self):
        with pytest.raises(ValueError, match="D must be finite"):
            MessageStream("s", T=100, D=NAN)
        with pytest.raises(ValueError, match="T must be finite"):
            MessageStream("s", T=INF)
        with pytest.raises(ValueError, match="tsl must be finite"):
            PhyParameters(tsl=NAN)
        net = factory_cell_network()
        with pytest.raises(ValueError, match="ttr must be finite"):
            Network(masters=net.masters, ttr=NAN)
