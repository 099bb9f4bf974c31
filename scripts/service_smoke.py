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
* the final ``stats`` document must show nonzero cache hits and one
  session per client,
* a ``shutdown`` request must stop the daemon cleanly (exit code 0).

Exits nonzero with a message on the first violated expectation.
"""

import json
import subprocess
import sys
import threading

from repro import api
from repro.profibus import network_to_dict
from repro.scenarios import factory_cell_network
from repro.service import ServiceClient, ServiceError

N_CLIENTS = 4


def fail(message):
    print(f"service smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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

        with ServiceClient(*address) as monitor:
            stats = monitor.stats()
            cache = stats["cache"]
            if cache["hits"] < N_CLIENTS + 1:
                fail(f"expected >= {N_CLIENTS + 1} cache hits, got {cache!r}")
            if cache["misses"] != 2:
                fail(f"expected exactly 2 misses (base + variant): {cache!r}")
            sessions = stats["sessions"]
            # + warmup, probe, monitor
            if sessions["total_clients"] != N_CLIENTS + 3:
                fail(f"expected {N_CLIENTS + 3} sessions: {sessions!r}")
            errors = sum(s["errors"] for s in sessions["sessions"].values())
            if errors != 2:  # the two malformed probes only
                fail(f"expected exactly 2 session errors: {sessions!r}")
            monitor.shutdown()

        if proc.wait(timeout=30) != 0:
            fail(f"daemon exited with {proc.returncode}")
        print("service smoke: OK —",
              json.dumps({"cache": cache, "clients": N_CLIENTS}))
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
