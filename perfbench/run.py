"""Layered end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics (see ``perfbench/layers.py``).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output matched its reference, 1 when one did not, and 2
when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (every workload reports all of them) and units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "api-request", "daemon", "trace-check"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code: machine, versions,
    defaults, code identity and seed."""
    import repro.perf.config as config
    import repro.perf.vector as vector

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": vector.numpy_version(),
        "vector_backend": vector.backend_name(),
        "analysis_mode": config.analysis_mode(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def cold_start(workload: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to the end of its
    first (warm-up) request."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "warmup.py"), workload],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=env)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload} cold start failed (exit {code})")
    return elapsed


def measured_run(args, wl) -> tuple:
    """Set-up timing, then the workload with tracing off."""
    if args.workload == "daemon":
        outcome = wl.run_daemon(args.seed, args.seconds, str(ROOT))
    else:
        env = wl.clean_env(str(SRC))
        setup = [cold_start(args.workload, env) for _ in range(wl.SETUP_RUNS)]
        wl.WARM_UPS[args.workload]()
        outcome = {
            "batch": wl.run_batch,
            "api-request": wl.run_api_request,
            "trace-check": wl.run_trace_check,
        }[args.workload](args.seed, args.seconds)
        outcome.setup = setup
        outcome.rss_mb = wl.peak_rss_mb()
    if not outcome.times:
        raise wl.BenchError("no timed call succeeded")
    values = {
        "setup_s": outcome.setup_s(),
        "ops_per_s": outcome.ops_per_s(),
        "p50_ms": outcome.p50_ms(),
        "peak_rss_mb": outcome.rss_mb,
    }
    outcome.detail["unscaled"] = {
        "setup_s": outcome.setup_s(raw=True),
        "ops_per_s": outcome.ops_per_s(raw=True),
        "p50_ms": outcome.p50_ms(raw=True),
        "speed_scale": outcome.speed_scale(),
    }
    counts = {
        "setup_s": len(outcome.setup),
        "ops_per_s": sum(outcome.unit_ops.values()),
        "p50_ms": len(outcome.times),
        "peak_rss_mb": 1,
    }
    lines = [f"  {name:<22} {values[name]:>14.6g} {unit:<6} (n={counts[name]})"
             for name, unit in END_TO_END]
    lines.append(f"  error_rate             {outcome.failed / max(1, outcome.attempted):>14.6g}"
                 f" share  (n={outcome.attempted})")
    lines.append(f"repetitions: {len(outcome.samples)} timed calls over "
                 f"{len(outcome.times)} units")
    lines.append("detail: " + json.dumps(outcome.detail, sort_keys=True))
    return values, END_TO_END, outcome, lines


def traced_run(args, layers) -> tuple:
    run = layers.traced_run(args.workload, args.seed, args.seconds, str(ROOT))
    lines = []
    for name, unit in layers.PER_LAYER:
        value = run.metrics[name]
        shown = "dropped: " + run.notes[name] if value is None else f"{value:.6g}"
        lines.append(f"  {name:<42} {shown:>14} {unit}")
    if run.missing_targets:
        lines.append("missing span targets: " + ", ".join(run.missing_targets))
    # a metric with no spans in this tree is dropped; JSON needs a number
    values = {name: (0.0 if run.metrics[name] is None else run.metrics[name])
              for name, _unit in layers.PER_LAYER}
    return values, layers.PER_LAYER, run.out, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import layers
    from perfbench import workloads as wl

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        values, units, outcome, lines = traced_run(args, layers)
    else:
        values, units, outcome, lines = measured_run(args, wl)
    for line in lines:
        print(line)
    for problem in outcome.problems:
        print(f"MISMATCH: {problem}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
