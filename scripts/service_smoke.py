#!/usr/bin/env python
"""CI smoke driver for the analysis service.

Launches the real daemon (``repro-cli serve --port 0``) as a
subprocess, parses the kernel-assigned port off its banner line, then
drives **four concurrent clients** at it:

* all four send the same factory-cell analysis request (one warm-up
  first, so the duplicates deterministically hit the shared cache),
* one also sends a mutated variant (TTR override — a different value
  key, so it must miss),
* every verdict is compared **bit-exactly** against the offline
  ``repro.api`` path computed in this process,
* a request whose network has a master at address 200, and one whose
  master carries ``"streams": 5``, must each come back as a
  ``bad-request`` error, and an exact repeat of the base request must
  come back ``cached`` and byte-equal to the offline result,
* on one raw connection, a request with no ``id`` and one with a
  string ``id`` must each be answered and then served ``cached`` on
  repeat, and an envelope whose ``id`` is ``NaN`` must come back as a
  ``protocol`` error with the connection still answering a ``ping``,
* a ``sweep`` (computed on the executor) must be answered correctly
  while a second client's ``ping`` is answered,
* the final ``stats`` document must show nonzero cache hits, one
  session per client, the bounded ``analyse`` misses computed inline
  and the rest (the variant, whose masters reach ``U >= 1``, and the
  sweep) on the executor,
* a ``shutdown`` request must stop the daemon cleanly (exit code 0).

Exits nonzero with a message on the first violated expectation.
"""

import json
import socket
import subprocess
import sys
import threading

from repro import api
from repro.profibus import network_to_dict
from repro.scenarios import factory_cell_network
from repro.service import ServiceClient, ServiceError, protocol

N_CLIENTS = 4


def fail(message):
    print(f"service smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def raw_checks(address, docs):
    """Requests with no id and with a string id, each sent twice, then a
    ``NaN`` id and a ``ping``, over one plain socket."""
    with socket.create_connection(address, timeout=60) as sock:
        rfile = sock.makefile("rb")

        def send(line):
            sock.sendall(line)
            return json.loads(rfile.readline())

        for request_id, (doc, offline) in zip((None, "smoke-é"), docs):
            line = protocol.encode(
                protocol.request_envelope("analyse", doc, request_id))
            for cached in (False, True):
                reply = send(line)
                if not reply.get("ok") or reply["id"] != request_id:
                    fail(f"id {request_id!r}: bad reply {reply!r}")
                if reply["cached"] is not cached:
                    fail(f"id {request_id!r}: expected cached={cached}")
                if canonical(reply["result"]) != canonical(offline):
                    fail(f"id {request_id!r}: differs from offline repro.api")
        nan_line = protocol.encode(protocol.request_envelope("ping", None, 1))
        reply = send(nan_line.replace(b'"id":1', b'"id":NaN'))
        if reply.get("ok") or reply["error"]["type"] != "protocol":
            fail(f"a NaN id must be a protocol error: {reply!r}")
        reply = send(protocol.encode(protocol.request_envelope("ping")))
        if not reply.get("ok"):
            fail(f"the connection died after a protocol error: {reply!r}")
        rfile.close()


def sweep_with_ping(address, sweep, offline):
    """A sweep on one connection while another pings until it is back."""
    box = {}

    def run():
        try:
            with ServiceClient(*address) as client:
                box["reply"] = client.sweep(sweep)
        except Exception as exc:  # noqa: BLE001 — reported below
            box["error"] = exc

    worker = threading.Thread(target=run)
    pings = 0
    with ServiceClient(*address) as pinger:
        worker.start()
        while True:
            if pinger.ping()["pong"] is not True:
                fail("ping during a sweep was not answered")
            pings += 1
            if not worker.is_alive():
                break
    worker.join(timeout=60)
    if "error" in box:
        fail(f"sweep: {box['error']}")
    if box["reply"].result != offline:
        fail("sweep verdict differs from offline repro.api")
    return pings


def main():
    base = api.AnalysisRequest(
        op="analyse", network=network_to_dict(factory_cell_network())
    ).to_dict()
    variant = dict(base, ttr=50_000)
    malformed = json.loads(json.dumps(base))
    malformed["network"]["masters"][0]["address"] = 200
    not_a_list = json.loads(json.dumps(base))
    not_a_list["network"]["masters"][0]["streams"] = 5
    offline_base = api.execute_request_doc(base)
    offline_variant = api.execute_request_doc(variant)
    by_id = [dict(base, policy=p) for p in ("edf", "fcfs")]
    by_id = [(doc, api.execute_request_doc(doc)) for doc in by_id]
    sweep = dict(base, op="sweep", sweep_param="deadline-scale",
                 sweep_values=[round(0.5 + 0.01 * k, 2) for k in range(101)])
    offline_sweep = api.execute_request_doc(sweep)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        if not banner.startswith("listening on "):
            fail(f"unexpected server banner {banner!r}")
        host, _, port = banner.removeprefix("listening on ").rpartition(":")
        address = (host, int(port))
        print(f"service smoke: daemon up at {host}:{port}")

        with ServiceClient(*address) as warmup:
            reply = warmup.analyse(base)
            if reply.cached:
                fail("warm-up request cannot be a cache hit")
            if reply.result != offline_base:
                fail("warm-up verdict differs from offline repro.api")

        replies = {}
        errors = []

        def drive(name, docs):
            try:
                with ServiceClient(*address) as client:
                    client.ping()
                    replies[name] = [client.analyse(d) for d in docs]
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(f"{name}: {exc}")

        jobs = [(f"client-{i}", [base]) for i in range(N_CLIENTS - 1)]
        jobs.append(("client-variant", [base, variant]))
        threads = [threading.Thread(target=drive, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        if errors:
            fail("; ".join(errors))

        for name, _ in jobs:
            dup = replies[name][0]
            if dup.result != offline_base:
                fail(f"{name}: duplicate verdict differs from offline path")
            if not dup.cached:
                fail(f"{name}: duplicate request missed the shared cache")
        mutated = replies["client-variant"][1]
        if mutated.result != offline_variant:
            fail("variant verdict differs from offline path")
        if mutated.cached:
            fail("mutated variant must be a cache miss")

        with ServiceClient(*address) as probe:
            try:
                probe.analyse(malformed)
                fail("a master at address 200 was answered")
            except ServiceError as exc:
                if exc.error_type != "bad-request":
                    fail(f"malformed address: expected bad-request, got {exc}")
            try:
                probe.analyse(not_a_list)
                fail('a master with "streams": 5 was answered')
            except ServiceError as exc:
                if exc.error_type != "bad-request":
                    fail(f'"streams": 5: expected bad-request, got {exc}')
            repeat = probe.analyse(base)
            if not repeat.cached:
                fail("an exact repeat missed the shared cache")
            if canonical(repeat.result) != canonical(offline_base):
                fail("exact repeat differs from offline repro.api")

        raw_checks(address, by_id)
        pings = sweep_with_ping(address, sweep, offline_sweep)

        with ServiceClient(*address) as monitor:
            stats = monitor.stats()
            cache = stats["cache"]
            if cache["hits"] < N_CLIENTS + 3:
                fail(f"expected >= {N_CLIENTS + 3} cache hits, got {cache!r}")
            if cache["misses"] != 5:
                fail("expected exactly 5 misses (base, variant, two by id, "
                     f"sweep): {cache!r}")
            # the variant's TTR puts a master at U >= 1: no iteration
            # bound, so it computes on the executor like the sweep
            if stats["compute"] != {"inline": 3, "executor": 2}:
                fail("expected three analyse misses inline, the variant "
                     f"and the sweep on the executor: {stats['compute']!r}")
            sessions = stats["sessions"]
            # + warmup, probe, raw, sweep, pinger, monitor
            if sessions["total_clients"] != N_CLIENTS + 6:
                fail(f"expected {N_CLIENTS + 6} sessions: {sessions!r}")
            errors = sum(s["errors"] for s in sessions["sessions"].values())
            if errors != 3:  # the two malformed probes and the NaN id
                fail(f"expected exactly 3 session errors: {sessions!r}")
            monitor.shutdown()

        if proc.wait(timeout=30) != 0:
            fail(f"daemon exited with {proc.returncode}")
        print("service smoke: OK —",
              json.dumps({"cache": cache, "compute": stats["compute"],
                          "clients": N_CLIENTS, "pings_during_sweep": pings}))
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
