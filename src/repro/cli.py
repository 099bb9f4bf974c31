"""Command-line interface.

Subcommands::

    profibus-rt analyse  --scenario factory-cell --policy dm [--ttr N]
    profibus-rt ttr      --scenario factory-cell
    profibus-rt simulate --scenario factory-cell --policy edf --horizon-ms 4000
    profibus-rt monitor  --scenario factory-cell --trace run.jsonl
    profibus-rt report   --scenario factory-cell
    profibus-rt fuzz     --budget 200 --seed 0
    profibus-rt serve    --port 7532

``analyse`` prints per-stream worst-case response times (eqs. 11/16/17);
``ttr`` prints the maximum feasible TTR per policy (eq. 15 +
generalisation); ``simulate`` runs the token-bus simulator and compares
observed responses against the analytic bounds (``--export-trace``
records the run as a ``profibus-rt/trace/v1`` JSONL file); ``monitor``
checks a recorded frame log — exported or foreign — against the same
bounds (:mod:`repro.monitor`), from a file or following stdin;
``report`` prints the token-cycle breakdown (eqs. 13–14); ``serve``
runs the resident analysis service (:mod:`repro.service`).

``analyse``, ``sweep`` and ``serve`` are all thin transports over the
one typed entrypoint in :mod:`repro.api` — same request, same result
document, whichever way it arrives.
"""

from __future__ import annotations

import argparse
import sys

#: ``--scenario`` choices, built by :func:`_scenario_network`
_SCENARIOS = ("factory-cell", "paper-illustration", "single-master")


def _scenario_network(name: str):
    from . import scenarios

    if name == "factory-cell":
        return scenarios.factory_cell_network()
    if name == "paper-illustration":
        return scenarios.paper_illustration_network().with_ttr(3000)
    return scenarios.single_master_network()


def _load_network(args):
    # An unknown --scenario is reported (with the valid choices) before
    # any other argument is processed — in particular before a --file is
    # opened, so a typo'd scenario never turns into a confusing
    # file-related error downstream.
    scenario = getattr(args, "scenario", None)
    if scenario is not None and scenario not in _SCENARIOS:
        raise SystemExit(
            f"unknown scenario {scenario!r}; pick from {sorted(_SCENARIOS)}"
        )
    if getattr(args, "file", None):
        from .profibus.serialization import ScenarioFormatError, load_network

        try:
            net = load_network(args.file)
        except OSError as exc:
            raise SystemExit(f"cannot read scenario file {args.file}: {exc}")
        except ScenarioFormatError as exc:
            raise SystemExit(f"bad scenario file {args.file}: {exc}")
    else:
        if scenario is None:
            raise SystemExit(
                f"need --scenario or --file; scenarios: {sorted(_SCENARIOS)}"
            )
        net = _scenario_network(scenario)
    if getattr(args, "ttr", None):
        net = net.with_ttr(args.ttr)
    return net


def _cmd_analyse(args) -> int:
    from . import api

    net = _load_network(args)
    payload = api.analyse_network(net, policy=args.policy,
                                  refined=args.refined).payload
    phy = net.phy
    print(f"scenario={args.scenario} policy={args.policy} "
          f"TTR={payload['ttr']} ({phy.ms(payload['ttr']):.2f} ms) "
          f"Tcycle={payload['tcycle']} ({phy.ms(payload['tcycle']):.2f} ms)")
    print(f"{'stream':<28}{'R (bits)':>10}{'R (ms)':>9}{'D (ms)':>9}  verdict")
    for row in payload["streams"]:
        r = row["R"] if row["R"] is not None else float("inf")
        print(f"{row['master'] + '/' + row['stream']:<28}"
              f"{row['R'] if row['R'] is not None else '∞':>10}"
              f"{phy.ms(r):>9.2f}{phy.ms(row['D']):>9.2f}  "
              f"{'ok' if row['schedulable'] else 'MISS'}")
    print(f"schedulable: {payload['schedulable']}")
    return 0 if payload["schedulable"] else 1


def _cmd_ttr(args) -> int:
    from .profibus.ttr import ttr_advantage

    net = _load_network(args)
    adv = ttr_advantage(net, refined=args.refined)
    phy = net.phy
    print(f"scenario={args.scenario} — maximum feasible TTR per policy")
    for policy, val in adv.items():
        if val is None:
            print(f"  {policy:<5} infeasible at any TTR")
        else:
            print(f"  {policy:<5} TTR ≤ {val} bits ({phy.ms(val):.2f} ms)")
    return 0


def _cmd_simulate(args) -> int:
    from .sim.validate import validate_network

    net = _load_network(args)
    horizon = int(args.horizon_ms * net.phy.baud_rate / 1000)
    config = None
    tracer = None
    if getattr(args, "export_trace", None):
        from .sim.token import TokenBusConfig
        from .sim.trace import BusTrace

        policy = {"fcfs": "stock-fcfs", "dm": "ap-dm",
                  "edf": "ap-edf"}[args.policy]
        tracer = BusTrace(max_events=args.trace_events)
        config = TokenBusConfig(policy=policy, tracer=tracer)
    report = validate_network(net, args.policy, horizon, config=config)
    if tracer is not None:
        from .monitor.trace_io import write_trace_jsonl

        write_trace_jsonl(tracer, args.export_trace, horizon=horizon)
        print(f"wrote {args.export_trace} ({len(tracer.events)} events"
              f"{', truncated' if tracer.truncated else ''})")
    print(f"scenario={args.scenario} policy={args.policy} "
          f"horizon={args.horizon_ms} ms  (events={report.detail['events']})")
    print(f"{'stream':<28}{'bound':>10}{'observed':>10}{'jobs':>10}  verdict")
    for row in report.rows:
        jobs = f"{row.completed}/{row.released}"
        print(f"{row.name:<28}{row.bound if row.bound is not None else '∞':>10}"
              f"{row.effective_observed:>10}{jobs:>10}  {row.verdict}")
    print(f"max TRR observed: {report.detail['max_trr_observed']} "
          f"(Tcycle bound {report.detail['tcycle_bound']})")
    print(f"all bounds sound: {report.all_sound}")
    return 0 if report.all_sound else 1


def _cmd_report(args) -> int:
    from .profibus.timing import token_cycle_report

    net = _load_network(args)
    rep = token_cycle_report(net)
    phy = net.phy
    print(f"scenario={args.scenario}")
    print(f"  ring latency     : {rep.ring_latency} bits")
    print(f"  TTR              : {rep.ttr} bits ({phy.ms(rep.ttr):.2f} ms)")
    print(f"  Tdel (eq. 13)    : {rep.tdel_aggregate} bits")
    print(f"  Tdel (refined)   : {rep.tdel_refined} bits")
    print(f"  Tcycle (eq. 14)  : {rep.tcycle_aggregate} bits "
          f"({phy.ms(rep.tcycle_aggregate):.2f} ms)")
    print(f"  Tcycle (refined) : {rep.tcycle_refined} bits")
    print("  per-master longest cycles (any / high-priority):")
    for name in rep.per_master_cm:
        print(f"    {name:<12} {rep.per_master_cm[name]:>6} / "
              f"{rep.per_master_chm[name]:>6}")
    return 0


def _cmd_sweep(args) -> int:
    from . import api

    net = _load_network(args)
    if args.param == "ttr":
        values = tuple(range(args.start, args.stop + 1, args.step))
    elif args.param == "deadline-scale":
        n = max(2, (args.stop - args.start) // max(1, args.step) + 1)
        values = tuple(args.start / 100.0 + i * args.step / 100.0
                       for i in range(n)
                       if args.start + i * args.step <= args.stop)
    elif args.param == "baud":
        values = ()  # empty = the standard rates
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown sweep parameter {args.param!r}")
    try:
        result = api.sweep_network(net, args.param, values)
    except api.ApiError as exc:
        raise SystemExit(str(exc))
    print(result.payload["csv"], end="")
    return 0


def _cmd_trace(args) -> int:
    from .sim.token import TokenBusConfig, simulate_token_bus
    from .sim.trace import BusTrace, render_timeline

    net = _load_network(args)
    horizon = int(args.horizon_ms * net.phy.baud_rate / 1000)
    trace = BusTrace()
    policy = {"fcfs": "stock-fcfs", "dm": "ap-dm", "edf": "ap-edf"}[args.policy]
    simulate_token_bus(net, horizon,
                       config=TokenBusConfig(policy=policy, tracer=trace))
    window = int(args.window_ms * net.phy.baud_rate / 1000)
    # render_timeline itself annotates a truncated trace
    print(render_timeline(trace, 0, min(window, horizon), width=args.width))
    print(f"\nbus utilisation over trace: {trace.bus_utilisation() * 100:.1f}%")
    return 0


def _print_monitor_report(doc) -> None:
    """Text rendering of a ``profibus-rt/monitor/v1`` document (same
    columns as ``simulate``, plus the per-master rotation checks)."""
    detail = doc["detail"]
    print(f"policy={detail['policy']} horizon={detail['horizon']} "
          f"events={detail['events']} source={detail['source_format']}")
    print(f"{'stream':<28}{'bound':>10}{'observed':>10}{'jobs':>10}  verdict")
    for row in doc["rows"]:
        jobs = f"{row['completed']}/{row['released']}"
        bound = row["bound"] if row["bound"] is not None else "∞"
        print(f"{row['name']:<28}{bound:>10}"
              f"{row['effective_observed']:>10}{jobs:>10}  {row['verdict']}")
    print(f"{'master':<28}{'Tcycle':>10}{'max TRR':>10}{'visits':>10}  verdict")
    for name, m in doc["masters"].items():
        print(f"{name:<28}{m['trr_bound']:>10}{m['max_trr']:>10}"
              f"{m['token_visits']:>10}  {m['verdict']}")
    if detail.get("truncated"):
        print(f"(trace truncated: {detail['dropped']} events dropped — "
              "positive verdicts degraded)")
    if detail.get("unmatched_cycle_ends"):
        print(f"(unmatched cycle ends: {detail['unmatched_cycle_ends']} — "
              "affected streams degraded)")


def _cmd_monitor(args) -> int:
    import json as json_mod

    from . import api
    from .monitor.trace_io import TraceFormatError

    net = _load_network(args)

    if args.follow:
        # Incremental mode: feed stdin line by line, snapshot as JSON
        # lines every --every events and once at EOF.  The native header
        # line (if present) seeds horizon/dropped metadata.
        from .monitor.engine import TraceMonitor
        from .monitor.trace_io import parse_event_line, parse_header_line

        mon = TraceMonitor(net, args.policy, refined=args.refined,
                           stats_after=args.stats_after)
        horizon = args.horizon
        try:
            for i, raw in enumerate(sys.stdin):
                line = raw.strip()
                if not line:
                    continue
                if i == 0 and line.startswith("{"):
                    header = parse_header_line(line)
                    if header is not None:
                        if header["dropped"]:
                            mon.note_dropped(header["dropped"])
                        if horizon is None:
                            horizon = header["horizon"]
                        continue
                mon.feed(parse_event_line(line, "stdin line ", i + 1))
                if args.every and mon.events_seen % args.every == 0:
                    print(json_mod.dumps(mon.report(horizon=None).to_dict()),
                          flush=True)
        except TraceFormatError as exc:
            raise SystemExit(f"monitor: {exc}")
        report = mon.report(horizon=horizon)
        print(json_mod.dumps(report.to_dict()), flush=True)
        return 0 if report.all_clear else 1

    # File mode: ingest the whole log, then route through the same typed
    # facade the service uses — one request, one result document.
    from .monitor.trace_io import read_trace

    try:
        if args.trace == "-":
            ingested = read_trace(sys.stdin, fmt=args.trace_format)
        else:
            ingested = read_trace(args.trace, fmt=args.trace_format)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.trace}: {exc}")
    except TraceFormatError as exc:
        raise SystemExit(f"bad trace {args.trace}: {exc}")
    if args.horizon is not None:
        ingested.horizon = args.horizon
    try:
        result = api.monitor_check(
            net, ingested.to_doc(), policy=args.policy,
            refined=args.refined, stats_after=args.stats_after,
        )
    except api.ApiError as exc:
        raise SystemExit(f"monitor: {exc}")
    doc = result.payload["report"]
    if args.json:
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_monitor_report(doc)
        print(f"all clear: {result.payload['all_clear']}")
    return 0 if result.payload["all_clear"] else 1


def _cmd_bandwidth(args) -> int:
    from .profibus.bandwidth import bandwidth_advantage, low_priority_bandwidth
    from .profibus.ttr import max_feasible_ttr

    net = _load_network(args)
    phy = net.phy
    print(f"scenario={args.file or args.scenario} — guaranteed low-priority "
          "bandwidth at each policy's maximum feasible TTR")
    for policy in ("fcfs", "dm", "edf"):
        best = max_feasible_ttr(net, policy, refined=args.refined)
        if best is None:
            print(f"  {policy:<5} infeasible at any TTR")
            continue
        rep = low_priority_bandwidth(net, best, refined=args.refined)
        print(f"  {policy:<5} TTR={best} ({phy.ms(best):.2f} ms)  "
              f"low budget {rep.low_budget_per_rotation:.0f} bits/rotation  "
              f"= {rep.low_fraction * 100:.1f}% of bus time")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz.campaign import CampaignConfig, run_campaign
    from .fuzz.families import FAMILIES
    from .fuzz.report import write_report

    families = tuple(args.families) if args.families else tuple(FAMILIES)
    config = CampaignConfig(
        budget=args.budget,
        seed=args.seed,
        families=families,
        workers=args.workers,
        horizon_cap=args.horizon_cap,
        max_horizon_extensions=args.max_extensions,
        horizon_extension_factor=args.extension_factor,
        checkpoint=args.checkpoint,
        max_counterexamples=args.max_counterexamples,
        shrink=not args.no_shrink,
        corpus_dir=args.promote_corpus,
    )
    result = run_campaign(config)
    t = result.timings
    print(f"fuzz: {result.instances} instances, seed {config.seed}, "
          f"{len(config.families)} families "
          f"({result.elapsed_seconds:.1f}s: "
          f"kernel grid {t.get('kernel_grid_seconds', 0.0):.1f}s, "
          f"instance oracles {t.get('instance_oracles_seconds', 0.0):.1f}s, "
          f"shrink {t.get('shrink_seconds', 0.0):.1f}s)")
    if result.resumed_instances:
        print(f"  resumed {result.resumed_instances} instance(s) from "
              f"checkpoint {config.checkpoint}")
    for name, row in result.oracle_stats.items():
        line = f"  {name:<20} checked={row['checked']} failed={row['failed']}"
        if row["skipped"]:
            line += f" skipped={row['skipped']}"
        if row["extended"]:
            line += f" extended={row['extended']}"
        print(line)
    failing_families = {
        family: {o: row["failed"] for o, row in per_oracle.items()
                 if row["failed"]}
        for family, per_oracle in result.family_oracle_stats.items()
        if any(row["failed"] for row in per_oracle.values())
    }
    for family, per_oracle in sorted(failing_families.items()):
        breakdown = ", ".join(f"{o}={n}" for o, n in sorted(per_oracle.items()))
        print(f"  family {family}: {breakdown}")
    for ce in result.counterexamples:
        masters = len(ce.shrunk.masters)
        streams = sum(len(m.streams) for m in ce.shrunk.masters)
        print(f"  COUNTEREXAMPLE [{ce.oracle}] {ce.family}#{ce.index}: "
              f"{ce.detail}")
        print(f"    shrunk to {masters} master(s) / {streams} stream(s): "
              f"{ce.shrunk_detail}")
    for entry_id in result.promoted_entries:
        print(f"  promoted to corpus: {entry_id}")
    for entry_id in result.promotion_skipped:
        print(f"  already in corpus: {entry_id}")
    for entry_id, error in result.promotion_errors:
        print(f"  NOT PROMOTABLE {entry_id}: {error}")
    path = write_report(result, args.out)
    print(f"wrote {path}")
    # A counterexample that cannot be frozen into the corpus is its own
    # failure: the regression would be lost the moment the seed moves.
    return 0 if result.ok and not result.promotion_errors else 1


def _cmd_lint(args) -> int:
    from .lint.report import render_json, render_text
    from .lint.runner import LintUsageError, run_lint

    try:
        result = run_lint(
            args.paths,
            rule_ids=args.rules or None,
            flow=args.flow,
            include_fixtures=args.include_fixtures,
            dump_graph=args.dump_graph,
        )
    except LintUsageError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    doc = result.to_doc()
    if args.format == "json":
        print(render_json(doc), end="")
    else:
        print(render_text(doc), end="")
    return result.exit_code


def _cmd_serve(args) -> int:
    import asyncio

    from .service.server import AnalysisServer

    if args.cache_capacity < 1:
        raise SystemExit("serve: --cache-capacity must be >= 1")
    server = AnalysisServer(host=args.host, port=args.port,
                            cache_capacity=args.cache_capacity)

    async def main() -> None:
        host, port = await server.start()
        # flushed immediately: scripts (and the CI smoke job) wait for
        # this line to learn the kernel-assigned port when --port 0
        print(f"listening on {host}:{port}", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_export(args) -> int:
    from .profibus.serialization import save_network

    net = _load_network(args)
    save_network(net, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_corpus_record(args) -> int:
    from .corpus import store

    if args.seed_defaults:
        if (args.update or args.scenario or args.file or args.id
                or args.ttr or args.corpus_file):
            # refusing beats half-executing: "--seed-defaults --update"
            # would rewrite the seed files and silently leave e.g.
            # promoted.jsonl unrefrozen while exiting 0, and a --ttr
            # override is never applied to the seeds
            raise SystemExit(
                "corpus record: --seed-defaults cannot be combined with "
                "--update/--scenario/--file/--id/--ttr/--corpus-file"
            )
        try:
            ids = store.write_seed_corpus(args.dir)
        except ValueError as exc:
            raise SystemExit(str(exc))
        for entry_id in ids:
            print(f"  recorded {entry_id}")
        print(f"wrote {len(ids)} seeded entries under {args.dir}/")
        return 0
    if args.file or args.scenario:
        net = _load_network(args)
        if args.id:
            entry_id = args.id
        elif args.scenario:
            entry_id = f"scenario:{args.scenario}"
        else:
            from pathlib import Path

            entry_id = f"file:{Path(args.file).stem}"
        provenance = {
            "source": "scenario" if args.scenario else "file",
            "scenario": args.scenario,
            "file": args.file,
        }
        config = None
        if args.update:
            # refreezing an existing entry keeps its pinned config and
            # provenance (a short-horizon entry must not silently revert
            # to derived defaults and stop testing what it pins)
            try:
                existing = {e.entry_id: e
                            for e in store.load_corpus(args.dir)}
            except ValueError:
                existing = {}
            old = existing.get(entry_id)
            if old is not None:
                config = old.config
                provenance = old.provenance
        filename = args.corpus_file or "local.jsonl"
        try:
            entry = store.record_network(net, entry_id, provenance,
                                         config=config)
            store.append_entry(args.dir, filename, entry,
                               update=args.update)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(f"recorded {entry_id} -> {args.dir}/{filename}")
        return 0
    if args.update:
        if args.id or args.ttr or args.corpus_file:
            raise SystemExit(
                "corpus record: --update without --scenario/--file "
                "refreezes the whole corpus and takes no "
                "--id/--ttr/--corpus-file; to refreeze one entry, name "
                "its source: --update --scenario X --id ID"
            )
        try:
            ids = store.refreeze_corpus(args.dir)
        except ValueError as exc:
            raise SystemExit(str(exc))
        for entry_id in ids:
            print(f"  refroze {entry_id}")
        print(f"refroze {len(ids)} entries under {args.dir}/")
        return 0
    raise SystemExit(
        "corpus record: pass --seed-defaults, --scenario/--file, or "
        "--update (refreeze all)"
    )


def _cmd_corpus_check(args) -> int:
    from .corpus import store

    try:
        report = store.check_corpus(args.dir, entry_ids=args.entry or None)
    except ValueError as exc:
        raise SystemExit(str(exc))
    for line in report.format_lines(verbose=args.verbose):
        print(line)
    return 0 if report.ok else 1


def _cmd_corpus_promote(args) -> int:
    import json as json_mod
    from pathlib import Path

    from .corpus import store

    try:
        doc = json_mod.loads(Path(args.report).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read fuzz report {args.report}: {exc}")
    except json_mod.JSONDecodeError as exc:
        raise SystemExit(f"bad fuzz report {args.report}: {exc}")
    try:
        result = store.promote_report_doc(doc, args.dir)
    except ValueError as exc:
        raise SystemExit(f"bad fuzz report {args.report}: {exc}")
    for entry_id in result.added:
        print(f"  promoted {entry_id}")
    for entry_id in result.skipped:
        print(f"  already present {entry_id}")
    for entry_id, error in result.errors:
        print(f"  NOT PROMOTABLE {entry_id}: {error}")
    print(f"corpus promote: {len(result.added)} added, "
          f"{len(result.skipped)} skipped, {len(result.errors)} errors")
    return 0 if result.ok else 1


def _cmd_corpus_mutants(args) -> int:
    from .corpus import mutants as mutants_mod

    try:
        report = mutants_mod.run_mutation_harness(
            args.dir, mutant_names=args.mutant or None
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    for line in report.format_lines():
        print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profibus-rt",
        description="PROFIBUS real-time message schedulability toolbox "
        "(Tovar & Vasques, IPPS/WPDRTS 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, policy=True):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--scenario", default="factory-cell",
                            choices=sorted(_SCENARIOS))
        source.add_argument("--file", default=None, metavar="SCENARIO.json",
                            help="load the network from a scenario file "
                                 "instead of --scenario")
        p.add_argument("--ttr", type=int, default=None,
                       help="override the scenario TTR (bit times)")
        p.add_argument("--refined", action="store_true",
                       help="use the refined per-master Tdel bound")
        if policy:
            p.add_argument("--policy", default="dm",
                           choices=("fcfs", "dm", "edf"))

    p = sub.add_parser("analyse", help="per-stream worst-case response times")
    add_common(p)
    p.set_defaults(func=_cmd_analyse)

    p = sub.add_parser("ttr", help="maximum feasible TTR per policy")
    add_common(p, policy=False)
    p.set_defaults(func=_cmd_ttr)

    p = sub.add_parser("simulate", help="token-bus simulation vs bounds")
    add_common(p)
    p.add_argument("--horizon-ms", type=float, default=2000.0)
    p.add_argument("--export-trace", default=None, metavar="TRACE.jsonl",
                   help="record the run and export it as a native "
                        "profibus-rt/trace/v1 JSONL file (see 'monitor')")
    p.add_argument("--trace-events", type=int, default=100_000,
                   help="recorder buffer cap; a longer run is truncated "
                        "and the export says so")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="token-cycle breakdown (eqs. 13-14)")
    add_common(p, policy=False)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "bandwidth",
        help="guaranteed low-priority bandwidth at each policy's max TTR",
    )
    add_common(p, policy=False)
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("export", help="write the scenario to a JSON file")
    add_common(p, policy=False)
    p.add_argument("output", help="path of the scenario file to write")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "sweep",
        help="CSV parameter sweep (TTR / deadline scale / baud rate)",
    )
    add_common(p, policy=False)
    p.add_argument("--param", default="ttr",
                   choices=("ttr", "deadline-scale", "baud"))
    p.add_argument("--start", type=int, default=500,
                   help="first value (TTR bits, or percent for "
                        "deadline-scale)")
    p.add_argument("--stop", type=int, default=8000)
    p.add_argument("--step", type=int, default=500)
    p.set_defaults(func=_cmd_sweep)

    from .fuzz.families import FAMILIES

    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return n

    p = sub.add_parser(
        "fuzz",
        help="differential soundness-fuzzing campaign -> FUZZ_report.json",
    )
    p.add_argument("--budget", type=positive_int, default=200,
                   help="number of random network instances")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (instances are a pure function of "
                        "seed, family, index)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for the per-instance oracles, "
                        "including the soundness simulations "
                        "(default: serial)")
    p.add_argument("--families", nargs="*", default=None, metavar="FAMILY",
                   choices=sorted(FAMILIES),
                   help="restrict to these network families "
                        f"(default: all; choices: {', '.join(sorted(FAMILIES))})")
    p.add_argument("--horizon-cap", type=int, default=3_000_000,
                   help="initial soundness-simulation horizon budget in bit "
                        "times; larger needs start capped here and rely on "
                        "the auto-extender")
    p.add_argument("--max-extensions", type=int, default=4,
                   help="geometric horizon retries before an incomplete "
                        "soundness run is recorded as a skip (0 disables "
                        "the auto-extender)")
    p.add_argument("--extension-factor", type=float, default=2.0,
                   help="horizon multiplier per auto-extension retry")
    p.add_argument("--checkpoint", default=None, metavar="STATE.jsonl",
                   help="stream per-instance results to this JSONL file; "
                        "rerunning with the same file resumes an "
                        "interrupted campaign")
    p.add_argument("--max-counterexamples", type=positive_int, default=10,
                   help="stop collecting/shrinking after this many failures")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw counterexamples without minimisation")
    p.add_argument("--promote-corpus", default=None, metavar="DIR",
                   help="promote every shrunk counterexample into this "
                        "golden-corpus directory at campaign end")
    p.add_argument("--out", default="FUZZ_report.json",
                   help="output JSON path")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "corpus",
        help="golden regression corpus: record/check/diff/promote/mutants",
    )
    csub = p.add_subparsers(dest="corpus_command", required=True)

    def add_corpus_dir(cp):
        cp.add_argument("--dir", default="corpus",
                        help="corpus directory of *.jsonl entry files "
                             "(default: corpus/)")

    cp = csub.add_parser(
        "record",
        help="freeze golden results (seed defaults, one network, or "
             "refreeze all)",
    )
    add_corpus_dir(cp)
    cp.add_argument("--seed-defaults", action="store_true",
                    help="(re)write the seeded corpus: built-in scenarios "
                         "+ one exemplar per fuzz family")
    cp.add_argument("--update", action="store_true",
                    help="refreeze existing entries (after an intentional "
                         "analytic change)")
    source = cp.add_mutually_exclusive_group()
    source.add_argument("--scenario", default=None,
                        choices=sorted(_SCENARIOS))
    source.add_argument("--file", default=None, metavar="SCENARIO.json")
    cp.add_argument("--ttr", type=int, default=None)
    cp.add_argument("--id", default=None,
                    help="entry id (default: derived from the source)")
    cp.add_argument("--corpus-file", default=None, metavar="NAME.jsonl",
                    help="corpus file new entries are appended to "
                         "(default: local.jsonl)")
    cp.set_defaults(func=_cmd_corpus_record)

    cp = csub.add_parser(
        "check",
        help="recompute every golden section, entry by entry in this "
             "process, and compare bit-exactly",
    )
    add_corpus_dir(cp)
    cp.add_argument("--entry", nargs="*", default=None, metavar="ID",
                    help="restrict to these entry ids")
    cp.add_argument("--verbose", action="store_true",
                    help="print the first diverging value per mismatch")
    cp.set_defaults(func=_cmd_corpus_check)

    cp = csub.add_parser(
        "diff",
        help="corpus check with full per-section divergence details",
    )
    add_corpus_dir(cp)
    cp.add_argument("--entry", nargs="*", default=None, metavar="ID")
    # diff IS check with the divergence details always on
    cp.set_defaults(func=_cmd_corpus_check, verbose=True)

    cp = csub.add_parser(
        "promote",
        help="freeze every shrunk counterexample of a FUZZ_report.json "
             "into the corpus",
    )
    add_corpus_dir(cp)
    cp.add_argument("--report", default="FUZZ_report.json",
                    help="fuzz report to promote counterexamples from")
    cp.set_defaults(func=_cmd_corpus_promote)

    cp = csub.add_parser(
        "mutants",
        help="mutation-strength harness: inject known-bad analysis "
             "variants, assert corpus check kills each",
    )
    add_corpus_dir(cp)
    cp.add_argument("--mutant", nargs="*", default=None, metavar="NAME",
                    help="restrict to these mutants (default: all)")
    cp.set_defaults(func=_cmd_corpus_mutants)

    p = sub.add_parser(
        "lint",
        help="static invariant checks (bit-exactness, determinism, "
             "schema contracts) -> exit 1 on findings",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (json follows schema "
                        "profibus-rt/lint/v3)")
    p.add_argument("--rules", nargs="*", default=None, metavar="REPxxx",
                   help="restrict to these rule ids (default: all)")
    p.add_argument("--no-flow", dest="flow", action="store_false",
                   help="per-file rules only; skip the interprocedural "
                        "call-graph passes REP010-REP013")
    p.add_argument("--dump-graph", default=None, metavar="GRAPH.json",
                   help="also write the deterministic call-graph "
                        "artifact (schema profibus-rt/callgraph/v1)")
    p.add_argument("--include-fixtures", action="store_true",
                   help="also lint tests/lint_fixtures/** "
                        "(intentionally-bad trees, skipped by default)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the resident analysis service (JSON lines over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=7532,
                   help="TCP port; 0 asks the kernel for a free one "
                        "(reported on the 'listening on' line)")
    p.add_argument("--cache-capacity", type=int, default=4096,
                   help="shared result-cache capacity (LRU entries)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "monitor",
        help="check a recorded frame log against the analytic bounds",
    )
    add_common(p)
    p.add_argument("--trace", default="-", metavar="TRACE",
                   help="frame log to ingest: native/external JSONL or "
                        "CSV ('-' = stdin; default)")
    p.add_argument("--trace-format", default="auto",
                   choices=("auto", "jsonl", "csv"),
                   help="ingest format (default: sniff from the first line)")
    p.add_argument("--horizon", type=int, default=None,
                   help="end of the observation window (bit times); "
                        "default: the trace's own horizon, else the last "
                        "event time")
    p.add_argument("--stats-after", type=int, default=0,
                   help="ignore responses of releases before this time "
                        "(bit times) — steady-state filter")
    p.add_argument("--follow", action="store_true",
                   help="incremental mode: feed events from stdin as they "
                        "arrive, emit monitor reports as JSON lines")
    p.add_argument("--every", type=int, default=0, metavar="N",
                   help="with --follow: emit a snapshot every N events "
                        "(default: only the final one)")
    p.add_argument("--json", action="store_true",
                   help="print the profibus-rt/monitor/v1 document instead "
                        "of the text table")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("trace", help="simulate and render an ASCII bus timeline")
    add_common(p)
    p.add_argument("--horizon-ms", type=float, default=200.0)
    p.add_argument("--window-ms", type=float, default=50.0,
                   help="timeline window rendered from t=0")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
