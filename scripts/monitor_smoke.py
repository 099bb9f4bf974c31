#!/usr/bin/env python
"""CI smoke driver for the trace monitoring mode.

End-to-end over the real CLI and transport layers, for every seeded
scenario × policy pair:

* run the simulator with a tracer attached and collect the offline
  ``validate_network`` report (the reference),
* export the trace through ``repro-cli simulate --export-trace`` (the
  same seeded run, re-executed by the CLI process),
* ingest the file with ``repro-cli monitor --json`` and compare the
  monitoring rows against the offline rows **byte-for-byte** (the
  serialised row documents must be equal as JSON bytes),
* repeat through the ``monitor`` op of the ``repro.api`` facade
  in-process, once with the columnar ``trace/v2`` document and once
  with the row-wise ``trace/v1`` document of the same run: both results
  must agree byte-for-byte, and their rows with the offline rows,
* send both documents to the real daemon (``repro-cli serve --port
  0``, one process for the whole run): both replies must be
  byte-identical to the in-process result, and the second document must
  be a cache hit (one run, one cache entry, whichever schema carried
  it),
* finally check the degradation path: a deliberately truncated
  recorder must yield no positively-``sound`` row and a non-zero
  ``repro-cli monitor`` exit code, then stop the daemon (exit code 0).

Exits nonzero with a message on the first violated expectation.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import api
from repro.monitor import (
    event_to_doc,
    monitor_trace,
    trace_doc,
    trace_from_doc,
    validation_row_doc,
)
from repro.profibus import network_to_dict
from repro.scenarios import (
    factory_cell_network,
    paper_illustration_network,
    single_master_network,
)
from repro.schemas import TRACE_SCHEMA_V1
from repro.service import ServiceClient
from repro.sim import BusTrace, TokenBusConfig, validate_network
from repro.sim.validate import _POLICY_TO_SIM

HORIZON_MS = 200.0

SCENARIOS = {
    "factory-cell": factory_cell_network,
    "paper-illustration": lambda: paper_illustration_network().with_ttr(3000),
    "single-master": single_master_network,
}


def fail(message):
    print(f"monitor smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def row_bytes(row_docs):
    return json.dumps(row_docs, sort_keys=True).encode()


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def v1_doc(tracer, horizon):
    """The row-wise ``trace/v1`` document of a recorded run."""
    return {"schema": TRACE_SCHEMA_V1, "format": "native",
            "horizon": horizon, "dropped": tracer.dropped,
            "events": [event_to_doc(e) for e in tracer.events]}


def cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


def check_pair(workdir, daemon, scenario, policy):
    net = SCENARIOS[scenario]()
    horizon = int(HORIZON_MS * net.phy.baud_rate / 1000)

    # Offline reference: simulate with a tracer in this process.
    tracer = BusTrace(max_events=1_000_000)
    ref = validate_network(
        net, policy, horizon,
        config=TokenBusConfig(policy=_POLICY_TO_SIM[policy], tracer=tracer),
    )
    ref_rows = row_bytes([validation_row_doc(r) for r in ref.rows])

    # The same seeded run exported by the CLI (determinism is part of
    # the contract: the CLI's run must equal this process's run).
    trace_path = Path(workdir) / f"{scenario}-{policy}.jsonl"
    out = cli(["simulate", "--scenario", scenario, "--policy", policy,
               "--horizon-ms", str(HORIZON_MS),
               "--export-trace", str(trace_path)])
    if out.returncode not in (0, 1):  # 1 = a legitimately unsound policy
        fail(f"simulate --export-trace failed for {scenario}/{policy}: "
             f"{out.stdout}{out.stderr}")

    # Ingest through the CLI; verdicts must agree byte-for-byte.
    out = cli(["monitor", "--scenario", scenario, "--policy", policy,
               "--trace", str(trace_path), "--json"])
    if out.returncode not in (0, 1):
        fail(f"monitor exited {out.returncode} for {scenario}/{policy}: "
             f"{out.stderr}")
    doc = json.loads(out.stdout)
    if row_bytes(doc["rows"]) != ref_rows:
        fail(f"CLI monitoring rows differ from offline validation for "
             f"{scenario}/{policy}")
    clear = (all(r["verdict"] == "sound" for r in doc["rows"])
             and all(m["verdict"] == "sound"
                     for m in doc["masters"].values()))
    if (out.returncode == 0) != clear:
        fail(f"monitor exit code {out.returncode} disagrees with the "
             f"verdicts for {scenario}/{policy}")

    # Same question through the api facade, in-process, as a v2 and
    # as a v1 document of the same run.
    docs = {"v2": trace_doc(tracer, horizon=horizon),
            "v1": v1_doc(tracer, horizon)}
    results = {name: api.monitor_check(net, doc, policy=policy)
               for name, doc in docs.items()}
    v1_result, v2_result = (canonical(results[name].to_dict())
                            for name in ("v1", "v2"))
    if v1_result != v2_result:
        fail(f"api monitor results of the v1 and the v2 document differ "
             f"for {scenario}/{policy}")
    api_rows = row_bytes(results["v2"].payload["report"]["rows"])
    if api_rows != ref_rows:
        fail(f"api monitor rows differ from offline validation for "
             f"{scenario}/{policy}")

    # Both documents through the daemon: one cache entry for the run.
    for cached, (name, doc) in enumerate(sorted(docs.items())):
        request = api.AnalysisRequest(
            op="monitor", network=network_to_dict(net), policy=policy,
            trace=doc).to_dict()
        reply = daemon.monitor(request)
        if canonical(reply.result) != v2_result:
            fail(f"daemon monitor result of the {name} document differs "
                 f"from repro.api for {scenario}/{policy}")
        if reply.cached is not bool(cached):
            fail(f"daemon: the {name} document of {scenario}/{policy} "
                 f"should{'' if cached else ' not'} be a cache hit")
    print(f"monitor smoke: {scenario}/{policy}: "
          f"{len(ref.rows)} rows byte-identical across "
          f"offline/CLI/api/daemon paths and v1/v2 documents")


def check_degradation(workdir):
    net = factory_cell_network()
    horizon = int(HORIZON_MS * net.phy.baud_rate / 1000)
    tracer = BusTrace(max_events=300)
    validate_network(
        net, "dm", horizon,
        config=TokenBusConfig(policy=_POLICY_TO_SIM["dm"], tracer=tracer),
    )
    if not tracer.truncated:
        fail("expected the capped recorder to truncate")
    report = monitor_trace(
        net, trace_from_doc(trace_doc(tracer, horizon=horizon)), "dm",
    )
    if any(r.verdict == "sound" for r in report.rows):
        fail("truncated trace produced a positively-sound row")
    trace_path = Path(workdir) / "truncated.jsonl"
    from repro.monitor import write_trace_jsonl

    write_trace_jsonl(tracer, trace_path, horizon=horizon)
    out = cli(["monitor", "--scenario", "factory-cell", "--policy", "dm",
               "--trace", str(trace_path)])
    if out.returncode == 0:
        fail("monitor exited 0 over a truncated trace")
    if "degraded" not in out.stdout:
        fail("monitor output over a truncated trace never says 'degraded'")
    print("monitor smoke: truncated trace degrades verdicts and exit code")


def main():
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
        with ServiceClient(host, int(port)) as daemon:
            with tempfile.TemporaryDirectory() as workdir:
                for scenario in sorted(SCENARIOS):
                    for policy in ("fcfs", "dm", "edf"):
                        check_pair(workdir, daemon, scenario, policy)
                check_degradation(workdir)
            daemon.shutdown()
        if proc.wait(timeout=30) != 0:
            fail(f"daemon exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
    print("monitor smoke: OK")


if __name__ == "__main__":
    main()
