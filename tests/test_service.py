"""Tests for the resident analysis service: wire protocol, the live
daemon with concurrent clients on the shared result cache, session
statistics and graceful shutdown."""

import asyncio
import json
import socket
import threading

import pytest

from repro import api
from repro.profibus import network_to_dict
from repro.scenarios import factory_cell_network
from repro.schemas import TRACE_SCHEMA_V1
from repro.service import (
    AnalysisServer,
    ProtocolError,
    ServiceClient,
    ServiceError,
)
from repro.service import protocol


# ---------------------------------------------------------------------------
# protocol unit tests (no sockets)
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        doc = protocol.request_envelope("ping", None, 3)
        line = protocol.encode(doc)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert protocol.decode_line(line) == doc

    def test_encode_refuses_nan_and_infinity(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                protocol.encode(protocol.request_envelope(
                    "analyse", {"sweep_values": [1.0, value]}, 1))

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="unparseable"):
            protocol.decode_line(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_line(b"[1, 2]\n")

    def test_parse_request_wrong_schema(self):
        with pytest.raises(ProtocolError, match="unsupported envelope schema"):
            protocol.parse_request({"schema": "nope/v9", "op": "ping"})

    def test_parse_request_unknown_key(self):
        doc = protocol.request_envelope("ping")
        doc["extra"] = 1
        with pytest.raises(ProtocolError, match="unknown envelope key"):
            protocol.parse_request(doc)

    def test_parse_request_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.parse_request(
                {"schema": protocol.SERVICE_SCHEMA, "op": "dance"})

    def test_control_op_takes_no_request(self):
        doc = protocol.request_envelope("stats", {"schema": "x"})
        with pytest.raises(ProtocolError, match="takes no request"):
            protocol.parse_request(doc)

    def test_analysis_op_needs_request(self):
        with pytest.raises(ProtocolError, match="needs a request"):
            protocol.parse_request(
                {"schema": protocol.SERVICE_SCHEMA, "op": "analyse"})

    def test_envelope_and_request_op_must_agree(self):
        doc = protocol.request_envelope("analyse", {"op": "sweep"}, 1)
        with pytest.raises(ProtocolError, match="does not match"):
            protocol.parse_request(doc)

    def test_parse_request_happy_paths(self):
        inner = {"op": "analyse", "network": {}}
        op, rid, req = protocol.parse_request(
            protocol.request_envelope("analyse", inner, 42))
        assert (op, rid, req) == ("analyse", 42, inner)
        op, rid, req = protocol.parse_request(
            protocol.request_envelope("shutdown"))
        assert (op, rid, req) == ("shutdown", None, None)


# ---------------------------------------------------------------------------
# live-server harness
# ---------------------------------------------------------------------------

class ServerThread:
    """Run an :class:`AnalysisServer` on its own event loop in a daemon
    thread; the test thread talks to it over real sockets."""

    def __init__(self, **kwargs):
        self.server = None
        self.loop = None
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self.server = AnalysisServer(port=0, **self._kwargs)
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_stopped()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        if self.loop is not None and not self.loop.is_closed():
            try:
                self.loop.call_soon_threadsafe(self.server._stopping.set)
            except RuntimeError:
                pass  # loop already shut down (e.g. shutdown op)
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "server thread failed to stop"

    @property
    def address(self):
        return self.server.host, self.server.port

    def client(self, timeout=30.0):
        return ServiceClient(*self.address, timeout=timeout)


def _cell_trace():
    """The factory cell and the ``trace/v2`` document of a 20 ms
    ``ap-dm`` run of it."""
    from repro.monitor import trace_doc
    from repro.sim import BusTrace, TokenBusConfig, simulate_token_bus

    cell = factory_cell_network()
    horizon = 20 * cell.phy.baud_rate // 1000
    recorder = BusTrace()
    simulate_token_bus(cell, horizon,
                       config=TokenBusConfig(policy="ap-dm", tracer=recorder))
    return cell, trace_doc(recorder, horizon=horizon)


def _v1_trace(trace):
    """The row-wise ``trace/v1`` document of a ``trace/v2`` one."""
    columns = trace["columns"]
    doc = {k: v for k, v in trace.items() if k != "columns"}
    doc.update(schema=TRACE_SCHEMA_V1, events=[
        dict(zip(columns, row)) for row in zip(*columns.values())])
    return doc


def _reverse_columns(trace):
    for column in trace["columns"].values():
        column.reverse()


def _monitor_doc(cell, trace):
    return {"schema": api.API_SCHEMA, "op": "monitor",
            "network": network_to_dict(cell), "policy": "dm",
            "trace": trace}


def _base_doc():
    return api.AnalysisRequest(
        op="analyse", network=network_to_dict(factory_cell_network())
    ).to_dict()


def _variant_doc():
    return api.AnalysisRequest(
        op="analyse", network=network_to_dict(factory_cell_network()),
        ttr=50_000,
    ).to_dict()


def _sweep_doc(ttr=None):
    """A request that always computes on the executor."""
    return api.AnalysisRequest(
        op="sweep", network=network_to_dict(factory_cell_network()),
        ttr=ttr, sweep_param="deadline-scale", sweep_values=(1.0,),
    ).to_dict()


# ---------------------------------------------------------------------------
# the acceptance test: concurrent clients, shared cache, offline parity
# ---------------------------------------------------------------------------

class TestConcurrentClients:
    def test_shared_cache_session_isolation_offline_parity(self):
        base, variant = _base_doc(), _variant_doc()
        offline_base = api.execute(api.AnalysisRequest.from_dict(base))
        offline_variant = api.execute(api.AnalysisRequest.from_dict(variant))

        with ServerThread() as srv:
            # warm the cache once so the concurrent duplicates below hit
            # deterministically (no first-compute race between clients)
            with srv.client() as warmup:
                warm = warmup.analyse(base)
                assert warm.cached is False

            results = {}
            errors = []

            def run_client(name, docs):
                try:
                    with srv.client() as c:
                        assert c.ping()["pong"] is True
                        results[name] = [c.analyse(d) for d in docs]
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append((name, exc))

            threads = [
                threading.Thread(target=run_client, args=("dup", [base])),
                threading.Thread(target=run_client,
                                 args=("mut", [base, variant])),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors

            # verdicts are bit-identical to the offline repro.api path
            assert results["dup"][0].result == offline_base.to_dict()
            assert results["mut"][0].result == offline_base.to_dict()
            assert results["mut"][1].result == offline_variant.to_dict()

            # the duplicates hit the shared cache; the variant missed
            assert results["dup"][0].cached is True
            assert results["mut"][0].cached is True
            assert results["mut"][1].cached is False

            with srv.client() as monitor:
                stats = monitor.stats()

        cache = stats["cache"]
        assert cache["hits"] >= 2
        assert cache["misses"] == 2  # warmup base + variant
        assert cache["size"] == 2

        sessions = stats["sessions"]
        # warmup + dup + mut + monitor
        assert sessions["total_clients"] == 4
        per_client = sessions["sessions"]
        profiles = sorted(
            (s["requests"], s["cache_hits"], s["cache_misses"])
            for s in per_client.values()
        )
        # monitor: 1 stats request (not yet counted as ok when the stats
        # doc is built); warmup: 1 analyse miss; dup: ping + 1 hit;
        # mut: ping + 1 hit + 1 miss
        assert profiles == [(1, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]
        for s in per_client.values():
            assert s["errors"] == 0

    def test_value_equal_spelling_shares_cache_across_clients(self):
        base = _base_doc()
        respelled = json.loads(json.dumps(base))
        for master in respelled["network"]["masters"]:
            for stream in master["streams"]:
                stream.setdefault("J", 0)  # default made explicit
        assert respelled != base  # different spelling...
        with ServerThread() as srv:
            with srv.client() as c1:
                assert c1.analyse(base).cached is False
            with srv.client() as c2:
                reply = c2.analyse(respelled)  # ...same value key
        assert reply.cached is True

    def test_v1_and_v2_trace_of_one_run_share_a_cache_entry(self):
        cell, trace = _cell_trace()
        v2 = _monitor_doc(cell, trace)
        v1 = _monitor_doc(cell, _v1_trace(trace))
        with ServerThread() as srv:
            with srv.client() as c:
                first = c.monitor(v2)
                second = c.monitor(v1)
                stats = c.stats()
        assert (first.cached, second.cached) == (False, True)
        assert first.result == second.result == api.execute_request_doc(v1)
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 1)


# ---------------------------------------------------------------------------
# error handling and graceful shutdown
# ---------------------------------------------------------------------------

class TestErrors:
    def test_bad_request_keeps_connection_usable(self):
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.analyse({"schema": api.API_SCHEMA, "op": "analyse",
                               "network": {"bogus": 1}})
                assert exc_info.value.error_type == "bad-request"
                # the error poisoned one response, not the session
                assert c.ping()["pong"] is True
                stats = c.stats()
            session = stats["sessions"]["sessions"]["client-1"]
            assert session["errors"] == 1

    def test_out_of_order_trace_is_a_bad_request(self):
        cell, trace = _cell_trace()
        _reverse_columns(trace)
        request = _monitor_doc(cell, trace)
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.monitor(request)
                assert exc_info.value.error_type == "bad-request"
                assert "must arrive in time order" in str(exc_info.value)
                _reverse_columns(trace)
                assert c.monitor(request).result["op"] == "monitor"

    def test_malformed_trace_is_a_bad_request(self):
        cell, trace = _cell_trace()
        trace["columns"]["time"][3] = 1.5
        v1 = _v1_trace(trace)
        with ServerThread() as srv:
            with srv.client() as c:
                for doc in (trace, v1):
                    with pytest.raises(ServiceError) as exc_info:
                        c.monitor(_monitor_doc(cell, doc))
                    assert exc_info.value.error_type == "bad-request"
                    assert str(exc_info.value) == (
                        "bad-request: bad trace document: trace event #3: "
                        "'time' must be an integer (bit times), got 1.5 — "
                        "convert foreign timestamps before ingesting")
                stats = c.stats()
            assert stats["sessions"]["sessions"]["client-1"]["errors"] == 2
            assert stats["cache"]["misses"] == 0

    def test_retired_mode_key_is_a_bad_request(self):
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.analyse(dict(_base_doc(), mode="generic"))
                assert exc_info.value.error_type == "bad-request"
                assert "'mode'" in str(exc_info.value)
                # the same session keeps serving well-formed requests
                reply = c.analyse(_base_doc())
                assert reply.result == api.execute_request_doc(_base_doc())
                stats = c.stats()
            session = stats["sessions"]["sessions"]["client-1"]
            assert session["errors"] == 1

    @pytest.mark.parametrize("mutate", [
        lambda d: d["network"]["masters"][0].update(address=200),
        lambda d: d["network"]["masters"][0]["streams"][0].update(T=-5),
        lambda d: d["network"].update(phy={"tsl": 1}),
        lambda d: d["network"].update(slaves=[{"name": "drive"}]),
        lambda d: d["network"]["masters"][0].pop("address"),
        lambda d: d.update(op="admission", admission_master=1,
                           admission_stream={"name": "new", "T": -5}),
        lambda d: d["network"]["masters"][0]["streams"].append([1, 2]),
        lambda d: d["network"].update(slaves=[[1, 2]]),
        lambda d: d["network"]["masters"][0].update(streams={"s": 1}),
        lambda d: d["network"]["masters"][0].update(streams=5),
        lambda d: d["network"].update(slaves=3),
        lambda d: d["network"]["masters"][0]["streams"][0].update(
            cycle={"req_payload": "x"}),
        lambda d: d["network"]["masters"][0]["streams"][0].update(
            cycle={"max_retry": "x"}),
        lambda d: d["network"]["masters"][0]["streams"][0].update(
            high_priority="no"),
        lambda d: d["network"]["masters"][0]["streams"][0].update(D=True),
    ], ids=["master-address-200", "stream-T-negative", "phy-tsl-1",
            "slave-without-address", "master-without-address",
            "admission-T-negative", "stream-entry-list", "slave-entry-list",
            "streams-dict", "streams-int", "slaves-int",
            "cycle-req-payload-string", "cycle-max-retry-string",
            "high-priority-string", "deadline-true"])
    def test_malformed_network_document_is_a_bad_request(self, mutate):
        doc = _base_doc()
        mutate(doc)
        with pytest.raises(api.ApiError):
            api.execute_request_doc(doc)
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.request(doc["op"], doc)
                assert exc_info.value.error_type == "bad-request"
                # the same session keeps serving well-formed requests
                reply = c.analyse(_base_doc())
                assert reply.result == api.execute_request_doc(_base_doc())

    def test_wrong_typed_field_is_a_bad_request(self):
        doc = dict(_base_doc(), ttr="x")
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ServiceError) as exc_info:
                    c.request("analyse", doc)
                assert exc_info.value.error_type == "bad-request"
                assert "ttr" in str(exc_info.value)
                # the same session keeps serving well-formed requests
                reply = c.analyse(_base_doc())
                assert reply.result == api.execute_request_doc(_base_doc())

    @pytest.mark.parametrize("param,values", [
        ("deadline-scale", [float("inf")]),
        ("ttr", ["x"]),
        ("deadline-scale", [True]),
    ], ids=["scale-inf", "ttr-string", "scale-true"])
    def test_bad_sweep_value_is_a_bad_request(self, param, values):
        """Sent as raw lines off a bare socket: the reference client
        refuses to write the ``Infinity`` token (not JSON) at all, and
        the server must still answer a client that does."""
        doc = dict(_base_doc(), op="sweep", sweep_param=param,
                   sweep_values=values)
        with ServerThread() as srv:
            with socket.create_connection(srv.address, timeout=30) as sock:
                replies = sock.makefile("rb")

                def exchange(op, request):
                    line = json.dumps(protocol.request_envelope(op, request,
                                                                1))
                    sock.sendall(line.encode() + b"\n")
                    return line, json.loads(replies.readline())

                line, error = exchange("sweep", doc)
                assert ("Infinity" in line) == (values == [float("inf")])
                assert error["ok"] is False
                assert error["error"]["type"] == "bad-request"
                assert "sweep_values" in error["error"]["message"]
                # the same session keeps serving well-formed requests
                _, reply = exchange("analyse", _base_doc())
                assert reply["result"] == api.execute_request_doc(_base_doc())

    def test_client_refuses_non_json_numbers_before_sending(self):
        doc = dict(_base_doc(), op="sweep", sweep_param="deadline-scale",
                   sweep_values=[float("inf")])
        with ServerThread() as srv:
            with srv.client() as c:
                with pytest.raises(ValueError, match="not JSON compliant"):
                    c.request("sweep", doc)
                reply = c.analyse(_base_doc())
                assert reply.result == api.execute_request_doc(_base_doc())
                stats = c.stats()
            # the refused request never reached the server
            session = stats["sessions"]["sessions"]["client-1"]
            assert session["ops"] == {"analyse": 1, "stats": 1}
            assert session["errors"] == 0

    def test_unparseable_line_reports_protocol_error(self):
        with ServerThread() as srv:
            host, port = srv.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
            doc = json.loads(line)
            assert doc["ok"] is False
            assert doc["error"]["type"] == "protocol"


class TestShutdown:
    def test_shutdown_completes_in_flight_request(self, monkeypatch):
        """A request already computing when ``shutdown`` arrives still
        gets its (correct) response before the connection closes.  A
        sweep, because only executor work can be parked: a small
        ``analyse`` miss computes on the event loop itself."""
        base = _sweep_doc()
        offline = api.execute(api.AnalysisRequest.from_dict(base)).to_dict()

        compute_started = threading.Event()
        release = threading.Event()
        real_compute = api.compute_result

        def slow_compute(request, net, fingerprint):
            compute_started.set()
            assert release.wait(timeout=20), "test never released compute"
            return real_compute(request, net, fingerprint)

        # the server's miss path: the compute step on the executor
        monkeypatch.setattr(api, "compute_result", slow_compute)
        reply_box = {}

        with ServerThread() as srv:
            worker = threading.Thread(
                target=lambda: reply_box.update(
                    reply=ServiceClient(*srv.address).sweep(base)))
            worker.start()
            assert compute_started.wait(timeout=20)
            with srv.client() as control:
                assert control.shutdown() == {"stopping": True}
            release.set()
            worker.join(timeout=20)
            assert not worker.is_alive()
        # the in-flight verdict completed and matches the offline path
        assert reply_box["reply"].result == offline

    def test_shutdown_closes_idle_connections(self):
        with ServerThread() as srv:
            idle = srv.client()
            assert idle.ping()["pong"] is True
            with srv.client() as control:
                control.shutdown()
            # once the daemon has fully drained, the idle connection is
            # gone (a request racing the drain may still be served — by
            # design — so wait for the stop to complete first)
            srv._thread.join(timeout=15)
            assert not srv._thread.is_alive()
            with pytest.raises((ServiceError, OSError)):
                idle.request("ping")
            idle.close()


class TestOneParsePerRequest:
    """A miss makes one validating pass over its network document and
    hashes its canonical form once, an exact repeat does neither, and
    every analysis request counts one cache hit or one miss."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from repro.profibus import serialization

        counts = {"parse": 0, "fingerprint": 0}
        real_parse = serialization.scan_network
        real_fingerprint = serialization.network_doc_fingerprint

        def parse(doc):
            counts["parse"] += 1
            return real_parse(doc)

        def fingerprint(doc):
            counts["fingerprint"] += 1
            return real_fingerprint(doc)

        monkeypatch.setattr(serialization, "scan_network", parse)
        monkeypatch.setattr(serialization, "network_doc_fingerprint",
                            fingerprint)
        return counts

    @staticmethod
    def _send(client, doc, counts):
        counts.update(parse=0, fingerprint=0)
        reply = client.request(doc["op"], doc)
        return reply, dict(counts)

    def test_miss_repeat_and_respelled_twin(self, counts):
        base = _base_doc()
        offline = api.execute_request_doc(base)
        twin = json.loads(json.dumps(base))
        for master in twin["network"]["masters"]:
            for stream in master["streams"]:
                stream.setdefault("J", 0)  # default made explicit
        with ServerThread() as srv:
            with srv.client() as c:
                miss, miss_counts = self._send(c, base, counts)
                repeat, repeat_counts = self._send(c, base, counts)
                twin_hit, twin_counts = self._send(c, twin, counts)
                stats = c.stats()
        assert (miss.cached, miss_counts) == (
            False, {"parse": 1, "fingerprint": 1})
        assert (repeat.cached, repeat_counts) == (
            True, {"parse": 0, "fingerprint": 0})
        assert (twin_hit.cached, twin_counts) == (
            True, {"parse": 1, "fingerprint": 1})
        for reply in (miss, repeat, twin_hit):
            assert reply.result == offline
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (2, 1)

    def test_known_spelling_with_evicted_value_key(self, counts,
                                                   monkeypatch):
        """With ``cache_capacity=1``, two concurrent misses finishing out
        of order leave the later spelling known while its value key has
        been evicted: that request parses once and counts one miss.
        Sweeps, so that both misses park on the executor."""
        first, second = _sweep_doc(), _sweep_doc(ttr=50_000)
        offline = api.execute_request_doc(second)
        gates = {None: threading.Event(), 50_000: threading.Event()}
        started = {ttr: threading.Event() for ttr in gates}
        ungated = dict(gates)  # each request waits on its first compute only
        real_compute = api.compute_result

        def gated_compute(request, net, fingerprint):
            gate = ungated.pop(request.ttr, None)
            if gate is not None:
                started[request.ttr].set()
                assert gate.wait(timeout=20), "test never opened the gate"
            return real_compute(request, net, fingerprint)

        monkeypatch.setattr(api, "compute_result", gated_compute)
        replies = {}
        with ServerThread(cache_capacity=1) as srv:
            def send(doc, ttr):
                with srv.client() as client:
                    replies[ttr] = client.sweep(doc)

            workers = []
            for doc, ttr in ((first, None), (second, 50_000)):
                worker = threading.Thread(target=send, args=(doc, ttr))
                worker.start()
                assert started[ttr].wait(timeout=20)
                workers.append(worker)
            # the second request finishes first, so the first one's put
            # evicts the second's value key; the second spelling stays
            # the known one (the spelling LRU holds one entry)
            gates[50_000].set()
            workers[1].join(timeout=20)
            assert not workers[1].is_alive()
            gates[None].set()
            workers[0].join(timeout=20)
            assert not workers[0].is_alive()
            assert [r.cached for r in (replies[None], replies[50_000])] == [
                False, False]
            with srv.client() as c:
                evicted, evicted_counts = self._send(c, second, counts)
                repeat, repeat_counts = self._send(c, second, counts)
                stats = c.stats()
        assert (evicted.cached, evicted_counts) == (
            False, {"parse": 1, "fingerprint": 1})
        assert (repeat.cached, repeat_counts) == (
            True, {"parse": 0, "fingerprint": 0})
        assert evicted.result == repeat.result == offline
        cache = stats["cache"]
        # four analysis requests: three misses, one hit, nothing counted twice
        assert (cache["hits"], cache["misses"]) == (1, 3)
        assert cache["evictions"] == 2

    def test_known_spelling_with_evicted_value_key_inline(self, counts):
        """The same case in sequence: an ``analyse`` miss computes on
        the event loop, the cache drops its entry, and the known
        spelling parses once, counts one miss and computes inline
        again; its repeat is a hit."""
        doc = _base_doc()
        offline = api.execute_request_doc(doc)
        with ServerThread() as srv:
            with srv.client() as c:
                miss, miss_counts = self._send(c, doc, counts)
                srv.server.cache.clear()
                evicted, evicted_counts = self._send(c, doc, counts)
                repeat, repeat_counts = self._send(c, doc, counts)
                stats = c.stats()
        for reply, seen in ((miss, miss_counts), (evicted, evicted_counts)):
            assert (reply.cached, seen) == (
                False, {"parse": 1, "fingerprint": 1})
        assert (repeat.cached, repeat_counts) == (
            True, {"parse": 0, "fingerprint": 0})
        assert miss.result == evicted.result == repeat.result == offline
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 2)
        assert stats["compute"] == {"inline": 2, "executor": 0}


class TestStatsDoc:
    def test_stats_shape(self):
        with ServerThread(cache_capacity=64) as srv:
            with srv.client() as c:
                stats = c.stats()
        assert stats["server"] == {"host": srv.server.host,
                                   "port": srv.server.port}
        assert set(stats["cache"]) >= {"hits", "misses", "evictions",
                                       "size", "capacity"}
        assert stats["cache"]["capacity"] == 64
