#!/usr/bin/env python
"""Record perfbench results, and compare two commits pair by pair.

Both subcommands run ``perfbench/run.py`` unchanged, with ``--trace 0``,
and read its ``env:`` line, its ``detail:`` line and its final JSON
line.

``record`` runs one workload once on the checkout the script sits in
and writes ``BENCH_<workload>.json`` at its root: the end-to-end
metrics, the best-repetition p50 of every request kind, ``speed_scale``,
perfbench's env block (plus the commit), the seed and the seconds::

    python scripts/bench.py record --workload api-request --seed 1

``ab`` builds the base commit and ``HEAD`` with ``git archive`` into
two sibling directories of a new temporary directory, made the same way
(perfbench's batch numbers depend on the checkout directory, so a
working tree is never one side), then
runs ``--pairs`` pairs, alternating which side runs first (``setup_s``
depends on the run order).  It prints each metric's medians and
quartiles, the head/base ratio of the medians, the pairs the head won
(ties count for neither) and whether the medians differ by more than
the base's interquartile range.  ``--control`` builds the base twice and
runs it against itself, to show the noise floor::

    python scripts/bench.py ab --base HEAD~1 --workload api-request \\
        --pairs 10 --seed 7
    python scripts/bench.py ab --base HEAD~1 --workload api-request \\
        --pairs 10 --seed 7 --control

Exits 1 when a run fails or perfbench reports a wrong answer.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent

#: perfbench's end-to-end metrics and the direction that is better
BETTER = {"setup_s": "lower", "ops_per_s": "higher", "p50_ms": "lower",
          "peak_rss_mb": "lower"}


class BenchError(RuntimeError):
    """A perfbench run that did not produce a correct result."""


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=str(tree), env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{tree}: perfbench exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}") from None
    if proc.returncode != 0 or not result["correct"]:
        mismatches = [ln for ln in lines if ln.startswith("MISMATCH")]
        raise BenchError(f"{tree}: perfbench exited {proc.returncode}: "
                         + "; ".join(mismatches[:5]))
    tagged = {ln.split(": ", 1)[0]: json.loads(ln.split(": ", 1)[1])
              for ln in lines if ln.startswith(("env: ", "detail: "))}
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": tagged["env"],
        "detail": tagged["detail"],
    }


def kind_p50s(detail: dict) -> dict:
    """``{kind: ms}``: the best-repetition p50 of each ``*_ms`` block of
    a perfbench detail (``all`` where a block has no ``best``)."""
    out = {}
    for name, block in sorted(detail.items()):
        if name.endswith("_ms") and isinstance(block, dict):
            timing = block.get("best") or block.get("all") or {}
            if "p50" in timing:
                out[name[:-len("_ms")]] = timing["p50"]
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def build_tree(rev: str, dest: Path) -> str:
    """``git archive`` of ``rev`` extracted into ``dest``; its commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return commit


def cmd_record(args) -> int:
    run = run_perfbench(ROOT, args.workload, args.seed, args.seconds)
    env = dict(run["env"])
    if env.get("commit") is None:
        env["commit"] = git("rev-parse", "HEAD")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": run["metrics"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "p50_ms_by_kind": kind_p50s(run["detail"]),
        "speed_scale": run["detail"]["unscaled"]["speed_scale"],
        "env": env,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


def quartiles(values):
    """``(q1, median, q3)``, inclusive quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return q1, mid, q3


def summary(pairs, metric: str) -> dict:
    base = [p["base"]["metrics"][metric] for p in pairs]
    head = [p["head"]["metrics"][metric] for p in pairs]
    sign = 1 if BETTER[metric] == "lower" else -1
    won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    bq, hq = quartiles(base), quartiles(head)
    return {"base": bq, "head": hq, "ratio": hq[1] / bq[1],
            "won": won, "lost": lost, "pairs": len(pairs),
            "beyond_base_iqr": abs(hq[1] - bq[1]) > bq[2] - bq[0]}


def cmd_ab(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    head_rev = args.base if args.control else "HEAD"
    commits = {"base": build_tree(args.base, workdir / "base"),
               "head": build_tree(head_rev, workdir / "head")}
    print(f"ab: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs} base={commits['base'][:12]} "
          f"head={commits['head'][:12]}{' (control)' if args.control else ''}"
          f" PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}"
          f" in {workdir}", flush=True)
    pairs = []
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_perfbench(workdir / side, args.workload,
                                       args.seed, args.seconds)
        pairs.append(pair)
        print(f"  pair {i + 1:>2} ({order[0]} first): " + "  ".join(
            f"{m} {pair['base']['metrics'][m]:.4g}->"
            f"{pair['head']['metrics'][m]:.4g}" for m in BETTER), flush=True)
    table = {m: summary(pairs, m) for m in BETTER}
    print(f"{'metric':<12} {'base q1/med/q3':>28} {'head q1/med/q3':>28} "
          f"{'head/base':>9} {'head won':>9}  beyond base IQR")
    for metric, row in table.items():
        print(f"{metric:<12} "
              + " ".join(f"{'/'.join(f'{v:.4g}' for v in row[side]):>28}"
                         for side in ("base", "head"))
              + f" {row['ratio']:>9.3f} {row['won']:>4}/{row['pairs']:<4}"
              f"  {'yes' if row['beyond_base_iqr'] else 'no'}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    workloads = ("batch", "api-request", "daemon", "trace-check")

    def common(p, seed):
        p.add_argument("--workload", required=True, choices=workloads)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--seconds", type=float, default=10.0)

    p = sub.add_parser("record", help="write BENCH_<workload>.json")
    common(p, seed=1)
    p.set_defaults(func=cmd_record)
    p = sub.add_parser("ab", help="alternating pairs of two commits")
    common(p, seed=7)
    p.add_argument("--base", required=True, help="base commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--control", action="store_true",
                   help="run the base against a second copy of itself")
    p.set_defaults(func=cmd_ab)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
