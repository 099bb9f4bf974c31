"""The resident asyncio analysis daemon.

Architecture (the single-backend / multi-client proxy shape)::

    client-1 ─┐
    client-2 ─┤  TCP, JSON lines   ┌──────────────────┐
    client-N ─┴────────────────────┤  AnalysisServer  │
                                   │  shared ResultCache
                                   └──────────────────┘

One :class:`AnalysisServer` owns **one** value-keyed
:class:`repro.perf.cache.ResultCache`; every connected client is
multiplexed over it.  The cache holds each result's canonical encoded
bytes (:func:`repro.service.protocol.encode_json`), so a reply is the
stored bytes spliced into the envelope
(:func:`repro.service.protocol.result_line`), byte-identical to encoding
the whole response, and no result is encoded twice.  A request is
served in up to four steps:

1. the envelope is decoded, and the sha256 of the request line as
   received, less a leading ``{"id":<id>,`` that every sorted-key client
   writes (:func:`repro.service.protocol.spelling_digest`), is looked up
   in a small LRU that maps each spelling already seen to its **value
   key**.  If the spelling is known and its value key is still cached,
   the stored bytes are the answer: no request object and no network is
   built, and nothing is re-serialised.  This is what makes exact
   repeats cheap, whatever their ``id``;
2. otherwise the request is parsed and keyed through
   :func:`repro.api.keyed_network`: one validating pass over the
   network document
   (:func:`repro.profibus.serialization.scan_network`) whose canonical
   document is hashed directly into the fingerprint, from which the
   value key (fingerprint + analysis coordinates) follows.  No
   ``Network`` is built.  A ``monitor`` request is keyed on the
   loop's default thread executor: its value key hashes the whole
   ingested trace (:meth:`repro.api.AnalysisRequest.trace_digest`),
   which would hold up every other client for as long.  The spelling
   is recorded only now that the request has parsed and keyed;
3. the shared cache is consulted under the value key; a hit returns the
   stored bytes.  Two clients spelling the same plant differently meet
   here;
4. a miss is computed by :func:`repro.api.compute_result` over the scan
   and the fingerprint, and its encoded result populates the cache.  An
   all-int ``analyse`` reads the scan's columns once
   (:meth:`repro.profibus.serialization.NetworkScan.columns`); when
   their kernel iteration bound (:func:`repro.api.iteration_bound`) is
   at most :data:`INLINE_ITERATIONS` it is answered right on the event
   loop, where a thread hop would buy nothing under the GIL.
   Everything else (the other ops, an ``analyse`` with some master at
   ``U ≥ 1``, one over the bound, one the columns decline) runs on the
   loop's default thread executor, so a long analysis cannot stall the
   accept loop.  There a sweep or an admission reads the scan's
   columns too and builds no ``Network``; a monitor check, and any
   scan the column reader declines, builds it once.  Nothing is parsed
   a second time.  The ``stats`` op counts both routes (``compute``).

Each analysis request counts exactly one cache hit or one miss: a known
spelling whose value key has been evicted counts its miss at step 1 and
goes straight from step 2 to step 4.

Shutdown is graceful by construction: each connection handler races its
next read against the server-wide stop event, so a ``shutdown`` request
(or :meth:`AnalysisServer.stop`) lets every **in-flight** request
complete and flush its response before connections close.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Tuple

from .. import api
from ..perf.cache import DEFAULT_CAPACITY, ResultCache
from ..profibus.serialization import NetworkScan
from . import protocol
from .sessions import SessionRegistry, SessionStats

#: The largest kernel iteration bound
#: (:func:`repro.api.iteration_bound`) of an ``analyse``
#: miss computed on the event loop itself.  Every perfbench daemon-mix
#: document of seeds 1-10 bounds at most 2,714 (p99 below 1,150).  On a
#: 2-CPU x86 container (Python 3.11), columns hill-climbed toward the
#: most counted iterations and the longest compute under this bound
#: took at most 0.53 ms (EDF, 5 streams, bound 3,882, 157 iterations);
#: the kernels never counted more than a sixth of the bound there.  At
#: the costliest rate seen, 3.4 µs per counted iteration, a bound met
#: exactly would block the loop for about 14 ms.
INLINE_ITERATIONS = 4096


def _key_request(
    request_doc: Dict[str, Any], known_key: Optional[str],
) -> Tuple[api.AnalysisRequest, NetworkScan, str, str]:
    """Step 2 of a miss: ``(request, scan, fingerprint, value key)``.
    The value key is computed only when the spelling did not already
    name one (``known_key``)."""
    request = api.AnalysisRequest.from_dict(request_doc)
    scan, fingerprint = api.keyed_network(request)
    key = known_key if known_key is not None else request.cache_key(
        fingerprint)
    return request, scan, fingerprint, key


class AnalysisServer:
    """The resident multi-client analysis service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.host = host
        self.port = port
        self.cache = ResultCache(cache_capacity)
        #: spelled-request digest → value key, bounded like the cache
        #: (an LRU of keys, not results; its own counters go unreported)
        self._spellings = ResultCache(cache_capacity)
        self.sessions = SessionRegistry()
        #: how many misses computed on the loop and on the executor
        self._computed = {"inline": 0, "executor": 0}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        self._client_tasks: set = set()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)`` — with
        ``port=0`` the kernel-assigned port, so scripts and tests can
        connect without racing a fixed number."""
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives,
        then drain: stop accepting, let in-flight requests finish, close
        every connection."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)

    async def run(self) -> Tuple[str, int]:
        """``start`` + ``serve_until_stopped`` in one call (what
        ``repro-cli serve`` runs)."""
        bound = await self.start()
        await self.serve_until_stopped()
        return bound

    async def stop(self) -> None:
        self._stopping.set()

    # -- connection handling ---------------------------------------------
    def _on_connect(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._handle_client(reader, writer))
        self._client_tasks.add(task)
        task.add_done_callback(self._client_tasks.discard)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = self.sessions.open(peer)
        stop_wait = asyncio.ensure_future(self._stopping.wait())
        try:
            while not self._stopping.is_set():
                read = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read not in done:
                    # server stopping while this client sat idle
                    read.cancel()
                    break
                try:
                    line = read.result()
                except (ValueError, asyncio.LimitOverrunError):
                    # request line over MAX_LINE_BYTES: report and drop
                    # the connection (the stream cannot be resynced)
                    session.note_request("?")
                    session.note_error()
                    writer.write(protocol.encode(protocol.error_response(
                        None, None, "protocol",
                        f"request line exceeds {protocol.MAX_LINE_BYTES} "
                        "bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break  # client closed its end
                # In-flight work completes even if shutdown arrives now:
                # the stop event is only consulted between requests.
                writer.write(await self._dispatch(session, line))
                await writer.drain()
        except ConnectionError:
            pass  # client vanished mid-write; its stats stay recorded
        finally:
            stop_wait.cancel()
            self.sessions.close(session)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- dispatch --------------------------------------------------------
    async def _dispatch(self, session: SessionStats, line: bytes) -> bytes:
        request_id: Any = None
        op: Optional[str] = None
        try:
            envelope = protocol.decode_line(line)
            request_id = envelope.get("id")
            op, request_id, request_doc = protocol.parse_request(envelope)
        except protocol.ProtocolError as exc:
            session.note_request(op or "?")
            session.note_error()
            return protocol.encode(protocol.error_response(
                request_id, op, "protocol", str(exc)))
        session.note_request(op)
        try:
            if op == "ping":
                session.note_ok()
                return protocol.encode(protocol.result_response(
                    request_id, op, protocol.ping_result(), False, 0.0))
            if op == "stats":
                session.note_ok()
                return protocol.encode(protocol.result_response(
                    request_id, op, self.stats_doc(), False, 0.0))
            if op == "shutdown":
                session.note_ok()
                self._stopping.set()
                return protocol.encode(protocol.result_response(
                    request_id, op, {"stopping": True}, False, 0.0))
            return await self._serve_analysis(session, op, request_id,
                                              request_doc, line)
        except api.ApiError as exc:
            session.note_error()
            return protocol.encode(protocol.error_response(
                request_id, op, "bad-request", str(exc)))
        except Exception as exc:  # noqa: BLE001 — a fault must not kill
            session.note_error()   # the daemon, only the one response
            return protocol.encode(protocol.error_response(
                request_id, op, "internal", f"{type(exc).__name__}: {exc}"))

    async def _serve_analysis(
        self,
        session: SessionStats,
        op: str,
        request_id: Any,
        request_doc: Dict[str, Any],
        line: bytes,
    ) -> bytes:
        start = time.perf_counter()
        id_json = protocol.encode_json(request_id)
        spelling = protocol.spelling_digest(line, id_json)
        known, key = self._spellings.get(spelling)
        hit, result_json = self.cache.get(key) if known else (False, None)
        if not hit:
            known_key = key if known else None
            if op == "monitor":
                request, scan, fingerprint, key = await (
                    asyncio.get_running_loop().run_in_executor(
                        None, _key_request, request_doc, known_key))
            else:
                request, scan, fingerprint, key = _key_request(
                    request_doc, known_key)
            if not known:
                self._spellings.put(spelling, key)
                hit, result_json = self.cache.get(key)
            if not hit:
                result = await self._compute(request, scan, fingerprint)
                result_json = protocol.encode_json(result.to_dict())
                self.cache.put(key, result_json)
        session.note_ok(cached=hit, counts_cache=True)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return protocol.result_line(id_json, op, result_json, hit,
                                    round(elapsed_ms, 3))

    async def _compute(self, request: api.AnalysisRequest,
                       scan: NetworkScan,
                       fingerprint: str) -> api.AnalysisResult:
        """A miss's answer: inline when it is an all-int ``analyse``
        whose iteration bound is at most :data:`INLINE_ITERATIONS`, on
        the default executor otherwise (including ``U ≥ 1``, where the
        bound does not exist)."""
        net: Any = scan
        if request.op == "analyse":
            columns = scan.columns(request.refined)
            if columns is not None:
                net = columns
                bound = api.iteration_bound(columns, request.policy)
                if bound is not None and bound <= INLINE_ITERATIONS:
                    self._computed["inline"] += 1
                    return api.compute_result(request, columns, fingerprint)
        self._computed["executor"] += 1
        return await asyncio.get_running_loop().run_in_executor(
            None, api.compute_result, request, net, fingerprint)

    # -- statistics ------------------------------------------------------
    def stats_doc(self) -> Dict[str, Any]:
        """The ``stats`` operation's result document (shape documented
        in PERF.md): server identity, shared-cache counters, per-client
        session statistics."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
            },
            "cache": self.cache.snapshot(),
            "compute": dict(self._computed),
            "sessions": self.sessions.snapshot(),
        }
