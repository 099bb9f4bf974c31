"""Structure-of-arrays batch kernels: whole batches of fixed points per sweep.

The scalar kernels of :mod:`repro.perf.kernels` solve one fixed-point
recursion at a time — a Python-level loop per stream per instance per
offset.  The recurrences are embarrassingly regular (same map shape, all
ints), so this module advances *thousands of them simultaneously*: one
"lane" per pending recursion, one instruction stream per sweep over the
whole batch.

SoA layout
==========

:func:`pack_networks` flattens a sequence of networks into contiguous
integer arrays with CSR-style offset tables (the **structure-of-arrays**
representation)::

    indices[p]                original position of packed network p
    tc[p]                     token-cycle time of packed network p
    net_master_start[p..p+1]  master-id range of packed network p
    net_stream_start[p..p+1]  stream-id range of packed network p
    master_net[m]             packed network owning master m
    master_tc[m]              its tc (denormalised: kernels never hop)
    master_stream_start[m..m+1]  stream range of master m
    stream_T / stream_D / stream_J   per high-priority stream, in
                              declaration order within each master

``tc`` is eq. (14) ``TTR + Σ_k C_M^k``, with each stream's cycle
length ``Ch`` taken from a table that lives for one call: one
:func:`repro.profibus.cycle.cycle_time` per distinct (PHY, request
payload, response payload, ``short_ack``, retry override), not one per
stream.

Every value passes through :func:`_pack_value` on the way in (the
identity — it exists as the seam the ``vec-int32-truncation`` corpus
mutant narrows).  Networks the arrays cannot represent exactly — a
non-int ``Tcycle``, non-int stream attributes, or magnitudes beyond
``_PACK_LIMIT`` where an int64 lane could overflow — are listed in
``fallback`` and take the per-network scalar path unchanged.

Lane engine
===========

All three policies reduce to one engine: iterate
``x ← base + Σ_j k(x)·C_j`` per lane, where ``k`` is the ceiling map
(busy periods), the strict ``⌊·⌋+1`` map (DM instances), or the capped
strict map (EDF offsets), with the exact exit order of the scalar
kernels (``total == x`` first, then ``total > limit``).  Lanes start
from the **generic seed** (one application of the map to 0; the busy
seed is ``blocking + ΣC``) and climb monotonically from below, so a
lane converges iff its least fixed point is within the limit — the same
verdict and the same converged value as both the generic path and the
seed-jumped fast kernels, bit for bit.  Only iteration counts differ
(reported in :data:`repro.perf.stats.counters`, never part of a
verdict).

**Convergence masking**: after every sweep, lanes whose exit condition
fired are retired and the arrays compacted, so ragged batches do not
pay for their slowest lane.  Retirement changes no surviving lane's
trajectory — each lane's sweep sequence is exactly the scalar
iteration it replaces (property-tested against per-lane reference
loops in ``tests/test_perf_vector.py``).

Arrays and fallbacks
====================

The engine runs on numpy, and the *whole* pipeline is array-shaped, not
just the iteration: one stable sort per pack
(:meth:`NetworkPack.deadline_order`) gives the DM priority ranks and
the prefixes EDF's deadline scopes read, blocking terms / seed sums /
candidate EDF offsets are built by
``repeat``/``arange`` segment expansion, the float utilisation guards
are evaluated as interval checks (masters whose guard lands within the
float-reordering margin re-run through the scalar kernels, so the
bit-exact declaration-order summation still decides them), and the
per-network verdict fold is ``reduceat`` over the network CSR.  The
engine guards against int64 overflow with exact python-int bound
prechecks plus a per-sweep bound; a policy pass that could wrap raises
``_VectorRangeError`` (freak magnitudes only).

Networks the lanes cannot take have one route: the per-network scalar
path.  Without numpy the batch driver builds no pack at all; for an
unpackable network or a pass that raised ``_VectorRangeError`` it runs
:func:`repro.perf.batch._analyse_one` on each network concerned, and
:func:`response_rows` falls back to :func:`repro.profibus.ttr.analyse`.
Correctness never depends on which route ran.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.timeops import DivergedError
from . import kernels
from .stats import counters as _counters

MAX_ITER = kernels.MAX_ITER

#: Magnitude bound for packing: int64 lanes stay provably wrap-free for
#: values below this (the overflow prechecks cover derived quantities).
_PACK_LIMIT = 1 << 44

#: int64-safety ceiling for the overflow prechecks (exact python
#: arithmetic on array maxima).
_SAFE_TOTAL = 1 << 62

#: Materialisation cap on any one lane/entry expansion — beyond this the
#: pass raises ``_VectorRangeError`` rather than allocate without bound
#: (the per-network scalar path enumerates the same work lazily).
_MAX_LANES = 4_000_000


def _pack_value(v: int) -> int:
    """Identity hook every value crosses when entering the SoA arrays.

    This is the dtype-narrowing seam: the ``vec-int32-truncation``
    corpus mutant replaces it with an int32 wraparound, and the corpus
    entry with >2³¹ magnitudes must kill that.
    """
    return v


#: The pristine seam — ``pack_networks`` skips the per-value call when
#: the module attribute still is this exact function (a mutant that
#: rebinds ``_pack_value`` fails the identity check and flows through).
_PACK_IDENTITY = _pack_value


# ------------------------------------------------------------------ backend

_numpy: Any = None
_numpy_checked = False


def _load_numpy():
    # The availability probe is impure in the letter (global memo) but
    # constant per process, and the cross-mode oracles prove the engine
    # choice never changes analysis values.
    global _numpy, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True  # lint: disable=REP011 — idempotent memo
        try:
            import numpy  # noqa: F401

            _numpy = numpy  # lint: disable=REP011 — idempotent memo
        except ImportError:
            _numpy = None  # lint: disable=REP011 — idempotent memo
    return _numpy


def numpy_available() -> bool:
    """Is numpy importable, so the SoA lanes can run?"""
    return _load_numpy() is not None


def numpy_version() -> Optional[str]:
    """The numpy version string the vector engine would use, else None."""
    np = _load_numpy()
    return None if np is None else np.__version__


def backend_name() -> str:
    """``"numpy"`` (the SoA lanes) or ``"scalar"`` (the per-network
    kernels, numpy absent) — the engine that would run now."""
    return "scalar" if _load_numpy() is None else "numpy"


class _VectorRangeError(Exception):
    """Internal: an int64 pass could overflow or over-allocate; its
    networks take the per-network scalar path."""


# ------------------------------------------------------------------ packing


class NetworkPack:
    """The SoA representation of a batch of networks (see module doc)."""

    __slots__ = (
        "networks", "indices", "fallback", "tc",
        "net_master_start", "net_stream_start", "master_net", "master_tc",
        "master_stream_start", "stream_T", "stream_D", "stream_J",
        "_specs", "_npc", "_dord", "_flat",
    )

    def __init__(self) -> None:
        self.networks: Tuple[Any, ...] = ()
        self.indices: List[int] = []
        self.fallback: Tuple[int, ...] = ()
        self.tc: List[int] = []
        self.net_master_start: List[int] = [0]
        self.net_stream_start: List[int] = [0]
        self.master_net: List[int] = []
        self.master_tc: List[int] = []
        self.master_stream_start: List[int] = [0]
        self.stream_T: List[int] = []
        self.stream_D: List[int] = []
        self.stream_J: List[int] = []
        self._specs: Dict[int, Tuple] = {}
        self._npc: Optional[Dict[str, Any]] = None
        self._dord: Optional[Dict[str, Any]] = None
        self._flat: Dict[str, Any] = {}

    @property
    def n_packed(self) -> int:
        return len(self.indices)

    @property
    def n_masters(self) -> int:
        return len(self.master_net)

    def masters_of(self, p: int) -> range:
        return range(self.net_master_start[p], self.net_master_start[p + 1])

    def master_specs(self, m: int) -> Tuple[Tuple[int, int, int], ...]:
        """``(T, D, J)`` per stream of master ``m`` — the scalar-kernel
        input shape, read back out of the flat arrays (memoized)."""
        specs = self._specs.get(m)
        if specs is None:
            lo = self.master_stream_start[m]
            hi = self.master_stream_start[m + 1]
            specs = self._specs[m] = tuple(
                (self.stream_T[s], self.stream_D[s], self.stream_J[s])
                for s in range(lo, hi)
            )
        return specs

    def network_view(self, p: int) -> Tuple[int, Tuple[Tuple, ...]]:
        """``(tc, per-master spec tuples)`` for packed network ``p`` —
        must round-trip the object model exactly (property-tested)."""
        return (
            self.tc[p],
            tuple(self.master_specs(m) for m in self.masters_of(p)),
        )

    def np_arrays(self) -> Dict[str, Any]:
        """The int64 array mirror of the packed lists, built lazily once."""
        if self._npc is None:
            np = _load_numpy()
            i64 = np.int64
            mss = np.asarray(self.master_stream_start, dtype=i64)
            m_count = mss[1:] - mss[:-1]
            self._npc = {
                "aT": np.asarray(self.stream_T, dtype=i64),
                "aD": np.asarray(self.stream_D, dtype=i64),
                "aJ": np.asarray(self.stream_J, dtype=i64),
                "m_start": mss[:-1],
                "m_count": m_count,
                "m_tc": np.asarray(self.master_tc, dtype=i64),
                "str_master": np.repeat(
                    np.arange(self.n_masters, dtype=i64), m_count),
                "nss": np.asarray(self.net_stream_start, dtype=i64),
            }
        return self._npc

    def deadline_order(self) -> Dict[str, Any]:
        """The packed streams in **deadline order**, built lazily once:
        stable by ``(master, D, declaration index)``, so each master
        keeps its segment ``[m_start, m_start + count)`` of positions.
        This is eq. (16)'s DM priority order and the order EDF's
        deadline scopes are prefixes of.

        ``order[p]`` is the stream at sorted position ``p``; ``key`` is
        the sorted one-int64 key ``master·D1 + D`` (``D1 = max D + 1``);
        ``T``/``D``/``J`` are the columns in that order.  Raises
        :class:`_VectorRangeError` when the key could wrap."""
        if self._dord is None:
            np = _load_numpy()
            d = self.np_arrays()
            aD = d["aD"]
            D1 = int(aD.max(initial=0)) + 1
            if self.n_masters * D1 >= _SAFE_TOTAL:
                raise _VectorRangeError()
            key = d["str_master"] * D1 + aD
            order = np.argsort(key, kind="stable")
            self._dord = {
                "order": order,
                "key": key[order],
                "D1": D1,
                "T": d["aT"][order],
                "D": aD[order],
                "J": d["aJ"][order],
            }
        return self._dord


def pack_networks(networks: Sequence, ttr: Optional[int] = None) -> NetworkPack:
    """Flatten ``networks`` into the SoA representation.

    ``ttr`` overrides every network's own TTR when given (the golden
    probe re-analysis).  Networks whose timing or streams are not plain
    ints — or whose magnitudes exceed ``_PACK_LIMIT`` — land in
    ``pack.fallback`` for the per-network scalar path.

    Extraction is one walk of each master's stream list: the flat
    ``(T, D, J)`` columns and the eq. (13) ``C_M^k`` term come out
    together, and ``Tcycle = TTR + Tdel`` (eq. (14)) is assembled right
    here instead of through the layered scalar helpers.  A stream's
    cycle length is its explicit ``C_bits``, else a lookup in a table
    local to this call, keyed by the PHY's field values and the four
    ``MessageCycleSpec`` fields ``cycle_time`` reads and filled by
    :func:`repro.profibus.cycle.cycle_time` the first time a key
    appears — a generated 1000-network batch holds about 140 distinct
    keys over ~14k streams.  Packing writes nothing onto the networks'
    streams or masters.  Bit-identical to the scalar helpers by the
    round-trip property tests and the golden corpus.
    """
    from dataclasses import fields
    from operator import attrgetter

    from ..profibus.cycle import cycle_time
    from ..profibus.frames import TOKEN_FRAME
    from ..profibus.phy import PhyParameters
    from ..profibus.timing import check_ring_latency

    pack = NetworkPack()
    pack.networks = tuple(networks)
    fallback: List[int] = []
    pv = _pack_value
    identity = pv is _PACK_IDENTITY
    lim = _PACK_LIMIT
    sT, sD, sJ = pack.stream_T, pack.stream_D, pack.stream_J
    addT, addD, addJ = sT.append, sD.append, sJ.append
    m_net, m_tc, m_start = (pack.master_net, pack.master_tc,
                            pack.master_stream_start)
    token_bits = TOKEN_FRAME.bits
    # PHY field values → {(req_payload, resp_payload, short_ack,
    # max_retry): Ch}.  A tuple of ints hashes and compares far cheaper
    # than the dataclass, and every unpickled network brings its own.
    phy_key = attrgetter(*(f.name for f in fields(PhyParameters)))
    tables: Dict[tuple, Dict[tuple, int]] = {}
    table: Dict[tuple, int] = {}
    last_phy = None
    tpt = 0
    for idx, net in enumerate(pack.networks):
        phy = net.phy
        if phy is not last_phy:
            tpt = token_bits + phy.tid2  # token_pass_time(phy)
            table = tables.setdefault(phy_key(phy), {})
            last_phy = phy
        # Single pass with rollback: columns go straight into the flat
        # arrays; an unpackable master truncates back to the marks.
        mark_s = len(sT)
        mark_m = len(m_net)
        p = len(pack.indices)
        tdel = 0
        ok = True
        for master in net.masters:
            m_net.append(p)
            mx = 0
            cm = 0
            for s in master.streams:
                cb = s.C_bits
                if cb is None:
                    spec = s.spec
                    key = (spec.req_payload, spec.resp_payload,
                           spec.short_ack, spec.max_retry)
                    cb = table.get(key)
                    if cb is None:
                        cb = table[key] = cycle_time(spec, phy)
                if cb > cm:
                    cm = cb
                if not s.high_priority:
                    continue
                t = s.T
                d = s.D
                j = s.J
                if type(t) is int and type(d) is int and type(j) is int:
                    if t > mx:
                        mx = t
                    if d > mx:
                        mx = d
                    if j > mx:
                        mx = j
                    addT(t)
                    addD(d)
                    addJ(j)
                else:
                    ok = False
                    break
            if not ok or mx > lim:
                ok = False
                break
            tdel += cm
            m_start.append(len(sT))
        if ok:
            t = ttr if ttr is not None else net.require_ttr()
            check_ring_latency(t, net.n_masters * tpt)
            tc = t + tdel  # eq. (14): Tcycle = TTR + Tdel
            ok = type(tc) is int and tc <= lim
        if not ok:
            del sT[mark_s:], sD[mark_s:], sJ[mark_s:]
            del m_net[mark_m:], m_start[mark_m + 1:]
            fallback.append(idx)
            continue
        if not identity:
            sT[mark_s:] = map(pv, sT[mark_s:])
            sD[mark_s:] = map(pv, sD[mark_s:])
            sJ[mark_s:] = map(pv, sJ[mark_s:])
            tc = pv(tc)
        pack.indices.append(idx)
        pack.tc.append(tc)
        m_tc.extend([tc] * (len(m_net) - mark_m))
        pack.net_master_start.append(len(m_net))
        pack.net_stream_start.append(len(sT))
    pack.fallback = tuple(fallback)
    return pack


# --------------------------------------------------------------- lane engine
#
# One call solves a batch of independent recursions
#   x ← base + Σ_j k(x)·C_j        (entries grouped per lane, in order)
# with k per `kind`:
#   "ceil":   ⌈(x+J)/T⌉                       (busy periods, no limit)
#   "strict": ⌊(x+J)/T⌋ + 1                   (DM instances)
#   "capped": min(⌊(x+J)/T⌋ + 1, cap)         (EDF offsets)
# Exit order per lane, identical to the scalar kernels:
#   total == x            → retire, converged, value = total
#   total >  limit        → retire, not converged, value = total
# Returns (values, converged, iterations); iterations counts one unit
# per lane per sweep it was still active — the scalar `it` per lane.


def _lanes_np(kind, base_a, x, limit_a, counts_a, eC_a, eT_a, eJ_a, eCap_a):
    """Array-interface numpy engine: int64 arrays in, int64/bool arrays
    out.  Does NOT touch the iteration counters — the array pipelines
    add the returned count."""
    np = _load_numpy()
    strict = kind != "ceil"
    capped = kind == "capped"
    n = len(base_a)
    i64 = np.int64
    values = np.zeros(n, dtype=i64)
    converged = np.zeros(n, dtype=bool)
    ids = np.arange(n)
    iters = 0
    # Exact-int bound data for the per-sweep overflow guard.
    cmax = int(eC_a.max(initial=0))
    emax = int(counts_a.max(initial=0))
    base_max = int(base_a.max(initial=0))
    # Both maps as one floor division per entry (T > 0):
    # ⌊(x+J)/T⌋ + 1 = ⌊(x+J+T)/T⌋ and ⌈(x+J)/T⌉ = ⌊(x+J+T−1)/T⌋.
    eN_a = eJ_a + eT_a if strict else eJ_a + (eT_a - 1)
    # Entry → lane map: a gather by it is cheaper than ``repeat``, and
    # compaction selects by index (``take``), not by boolean mask.
    lane_of = np.repeat(ids, counts_a)
    ends = np.cumsum(counts_a)
    starts = ends - counts_a
    for _sweep in range(1, MAX_ITER + 1):
        active = len(ids)
        if not active:
            return values, converged, iters
        iters += active
        k = x.take(lane_of)
        k += eN_a
        k //= eT_a
        if capped:
            np.minimum(k, eCap_a, out=k)
        if len(k):
            kmax = int(k.max())
            if base_max + kmax * cmax * emax >= _SAFE_TOTAL:
                raise _VectorRangeError()
        k *= eC_a
        cs = np.empty(len(k) + 1, dtype=i64)
        cs[0] = 0
        np.cumsum(k, out=cs[1:])
        tot = base_a + cs.take(ends) - cs.take(starts)
        eq = tot == x
        if limit_a is not None:
            exited = eq | (tot > limit_a)
        else:
            exited = eq
        if exited.any():
            out = np.flatnonzero(exited)
            gid = ids.take(out)
            values[gid] = tot.take(out)
            converged[gid] = eq.take(out)
            keep = ~exited
            live = np.flatnonzero(keep)
            if not len(live):
                return values, converged, iters
            sel = np.flatnonzero(keep.take(lane_of))
            ids = ids.take(live)
            base_a = base_a.take(live)
            if limit_a is not None:
                limit_a = limit_a.take(live)
            x = tot.take(live)
            counts_a = counts_a.take(live)
            lane_of = np.repeat(np.arange(len(live)), counts_a)
            ends = np.cumsum(counts_a)
            starts = ends - counts_a
            eC_a = eC_a.take(sel)
            eT_a = eT_a.take(sel)
            eN_a = eN_a.take(sel)
            if eCap_a is not None:
                eCap_a = eCap_a.take(sel)
            base_max = int(base_a.max(initial=0))
        else:
            x = tot
    raise DivergedError(
        f"fixed-point iteration did not settle after {MAX_ITER} iterations",
        int(x.max(initial=0)),
    )


def _cs0(np, a):
    """``[0, a0, a0+a1, …]`` — shared helper for segment starts/sums."""
    out = np.empty(len(a) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(a, out=out[1:])
    return out


# ------------------------------------------------------- policy stages


def _fcfs_flat_np(pack: NetworkPack):
    np = _load_numpy()
    d = pack.np_arrays()
    sm = d["str_master"]
    resp = d["m_count"][sm] * d["m_tc"][sm]
    return resp, None, np.ones(len(sm), dtype=bool)


def _dm_flat_np(pack: NetworkPack, max_instances: int = 100_000):
    """Eq. (16) staged entirely as arrays: the pack's deadline order
    ranks every stream of every master at once, segment expansion builds
    the busy and per-instance lanes, ``reduceat`` folds the verdicts.
    Returns ``(resp, None, valid)`` flat over the packed streams in
    declaration order (``valid`` False = unschedulable/None).

    The float utilisation guard is interval-checked: cumsum reordering
    error is ≪ the 1e-9 margin, so streams whose guard clears the margin
    keep the scalar verdict; masters with any stream inside the margin
    re-run through the scalar kernel, which sums in the bit-exact
    declaration order."""
    np = _load_numpy()
    d = pack.np_arrays()
    i64 = np.int64
    sm = d["str_master"]
    m_start, m_count, m_tc = d["m_start"], d["m_count"], d["m_tc"]
    S = len(sm)
    resp = np.zeros(S, dtype=i64)
    valid = np.zeros(S, dtype=bool)
    if not S:
        return resp, None, valid
    # Priority order: the pack's deadline order (master, D, declaration
    # index); segment m keeps the positions [m_start, m_start+count).
    dord = pack.deadline_order()
    ord_ = dord["order"]
    seg0 = m_start[sm]
    nseg = m_count[sm]
    rank = np.arange(S, dtype=i64) - seg0
    tc_s = m_tc[sm]
    Tp, Dp, Jp = dord["T"], dord["D"], dord["J"]
    B = np.where(rank < nseg - 1, tc_s, 0)
    # Interval utilisation guard (inclusive segmented cumsum, priority
    # order — the reorder vs. the scalar declaration-order sum is what
    # the margin absorbs).
    # lint: disable=REP001 — interval utilisation guard seam: float
    # bounds with an explicit margin; ambiguous lanes re-run scalar
    utils_p = tc_s / Tp.astype(np.float64)
    cs_u = np.cumsum(utils_p)
    u = cs_u - (cs_u[seg0] - utils_p[seg0])
    margin = 1e-9 * (u + 1.0)  # lint: disable=REP001 — guard seam
    hiB = B > 0
    # lint: disable=REP001 — interval utilisation guard seam
    def_skip = (u - margin > 1.0 + 1e-12) | (hiB & (u - margin > 1.0 - 1e-12))
    # lint: disable=REP001 — interval utilisation guard seam
    def_keep = (u + margin <= 1.0 + 1e-12) & (  # lint: disable=REP001
        ~hiB | (u + margin <= 1.0 - 1e-12))  # lint: disable=REP001
    amb = ~(def_skip | def_keep)
    m_ok = np.ones(pack.n_masters, dtype=bool)
    if amb.any():
        bad = np.unique(sm[amb])
        m_ok[bad] = False
        for m in bad.tolist():
            vals = kernels.dm_master_response_times(
                pack.master_specs(m), pack.master_tc[m], max_instances)
            lo = pack.master_stream_start[m]
            for k, v in enumerate(vals):
                if v is not None:
                    resp[lo + k] = v
                    valid[lo + k] = True
    # Exclusive segmented cumsum of the strict zero-step contributions
    # (Σ (⌊J/T⌋+1)·tc over higher ranks) — the lane seed tail.
    kJ = Jp // Tp + 1
    if int(kJ.max()) * int(tc_s.max()) * (S + 1) >= _SAFE_TOTAL:
        raise _VectorRangeError()
    t0 = kJ * tc_s
    cs_t = np.cumsum(t0)
    excl = cs_t - t0
    step0 = excl - excl[seg0]
    sur = def_keep & m_ok[sm]
    sur_idx = np.nonzero(sur)[0]
    if not len(sur_idx):
        return resp, None, valid
    # Busy-period lanes: entries = priority ranks 0..rank (own last).
    counts_b = rank[sur_idx] + 1
    E = int(counts_b.sum())
    if E > _MAX_LANES:
        raise _VectorRangeError()
    ent_pos = np.arange(E, dtype=i64) + np.repeat(
        seg0[sur_idx] - _cs0(np, counts_b)[:-1], counts_b)
    base_b = B[sur_idx]
    L_vals, _conv, it = _lanes_np(
        "ceil", base_b, base_b + counts_b * tc_s[sur_idx], None, counts_b,
        tc_s[ent_pos], Tp[ent_pos], Jp[ent_pos], None)
    _counters.vectorized += it
    # Instance lanes: one strict lane per (survivor, q).
    T_s, D_s, J_s = Tp[sur_idx], Dp[sur_idx], Jp[sur_idx]
    n_inst = -((-(L_vals + J_s)) // T_s)
    small = n_inst <= max_instances
    sur2 = sur_idx[small]
    if not len(sur2):
        return resp, None, valid
    nq = np.maximum(n_inst[small], 1)
    Q = int(nq.sum())
    if Q > _MAX_LANES:
        raise _VectorRangeError()
    lane_sur = np.repeat(np.arange(len(sur2)), nq)
    qstarts = _cs0(np, nq)[:-1]
    qv = np.arange(Q, dtype=i64) - np.repeat(qstarts, nq)
    tc_l = tc_s[sur2][lane_sur]
    T_l = T_s[small][lane_sur]
    D_l = D_s[small][lane_sur]
    J_l = J_s[small][lane_sur]
    if (int(qv.max()) * int(T_l.max()) + int(D_l.max()) + int(J_l.max())
            >= _SAFE_TOTAL):
        raise _VectorRangeError()
    Bq = B[sur2][lane_sur] + qv * tc_l
    counts_q = rank[sur2][lane_sur]
    Eq = int(counts_q.sum())
    if Eq > _MAX_LANES:
        raise _VectorRangeError()
    ent_pos_q = np.arange(Eq, dtype=i64) + np.repeat(
        seg0[sur2][lane_sur] - _cs0(np, counts_q)[:-1], counts_q)
    w, conv, it = _lanes_np(
        "strict", Bq, Bq + step0[sur2][lane_sur], qv * T_l + D_l + J_l - tc_l,
        counts_q, tc_s[ent_pos_q], Tp[ent_pos_q], Jp[ent_pos_q], None)
    _counters.vectorized += it
    # Fold instances per survivor (lanes contiguous, nq ≥ 1 each).
    r = w + tc_l - qv * T_l
    ok_lane = conv & (r + J_l <= D_l)
    feas = np.logical_and.reduceat(ok_lane, qstarts)
    worst = np.maximum.reduceat(r, qstarts)
    decl = ord_[sur2]
    resp[decl[feas]] = (worst + J_s[small])[feas]
    valid[decl[feas]] = True
    return resp, None, valid


def _edf_flat_np(pack: NetworkPack, limit_factor: int = 4):
    """Eqs. (17)–(18) staged entirely as arrays, on the positions of the
    pack's deadline order (each master keeps its segment, so the results
    map back through ``order`` at the end).  Candidate offsets are
    windows of each master's sorted absolute deadlines, merged by one
    sort of the int64 key ``position·(Lmax+1) + a`` with an
    adjacent-difference dedup; a lane's deadline scope is the sorted
    prefix of its master up to ``a + D_i`` (one ``searchsorted``) minus
    the stream itself; the first-strict-max fold is paired ``reduceat``
    passes.  Returns ``(resp, crit, valid)`` flat over the packed
    streams in declaration order."""
    np = _load_numpy()
    d = pack.np_arrays()
    i64 = np.int64
    aT = d["aT"]
    sm = d["str_master"]
    m_start, m_count, m_tc = d["m_start"], d["m_count"], d["m_tc"]
    S = len(aT)
    M = pack.n_masters
    resp = np.zeros(S, dtype=i64)
    crit = np.zeros(S, dtype=i64)
    valid = np.zeros(S, dtype=bool)
    if not S:
        return resp, crit, valid
    # Interval utilisation guard per master (declaration-order cumsum;
    # margin as in the DM stage).
    # lint: disable=REP001 — interval utilisation guard seam: float
    # bounds with an explicit margin; ambiguous lanes re-run scalar
    utils_el = m_tc[sm] / aT.astype(np.float64)
    cs_u = np.cumsum(utils_el)
    nz = m_count > 0
    starts_nz = m_start[nz]
    ends_nz = starts_nz + m_count[nz]
    u_m = np.zeros(M)
    u_m[nz] = cs_u[ends_nz - 1] - (cs_u[starts_nz] - utils_el[starts_nz])
    margin = 1e-9 * (u_m + 1.0)  # lint: disable=REP001 — guard seam
    # lint: disable=REP001 — interval utilisation guard seam
    def_none = nz & (u_m - margin > 1.0 + 1e-12)
    def_norm = nz & (u_m + margin <= 1.0 - 1e-12)  # lint: disable=REP001
    scalar_m = nz & ~def_none & ~def_norm
    if scalar_m.any():
        # Ambiguous guard or the U ≈ 1 hyperperiod region: the scalar
        # kernel decides with the bit-exact declaration-order sum.
        for m in np.nonzero(scalar_m)[0].tolist():
            vals = kernels.edf_master_response_times(
                pack.master_specs(m), pack.master_tc[m], limit_factor)
            lo = pack.master_stream_start[m]
            for k, (rv, av) in enumerate(vals):
                if rv is not None:
                    resp[lo + k] = rv
                    crit[lo + k] = av
                    valid[lo + k] = True
    nm_idx = np.nonzero(def_norm)[0]
    if not len(nm_idx):
        return resp, crit, valid
    dord = pack.deadline_order()
    Ts, Ds, Js, skey = dord["T"], dord["D"], dord["J"], dord["key"]
    # Busy lanes: one per normal master, blocking = tc, entries = all
    # its streams (order irrelevant: the map sums them).
    cnt_n = m_count[nm_idx]
    tc_n = m_tc[nm_idx]
    start_n = m_start[nm_idx]
    En = int(cnt_n.sum())
    ent_pos = np.arange(En, dtype=i64) + np.repeat(
        start_n - _cs0(np, cnt_n)[:-1], cnt_n)
    L_vals, _conv, it = _lanes_np(
        "ceil", tc_n, tc_n + cnt_n * tc_n, None, cnt_n,
        np.repeat(tc_n, cnt_n), Ts[ent_pos], Js[ent_pos], None)
    _counters.vectorized += it
    L_of_m = np.zeros(M, dtype=i64)
    L_of_m[nm_idx] = L_vals
    Lmax = int(L_vals.max())
    Dmax = dord["D1"] - 1
    Jmax = int(Js.max())
    tcmax = int(tc_n.max())
    Tmin = int(Ts.min())
    LK = Lmax + 1  # offsets lie in [0, Lmax]
    W = Lmax + Dmax + 1  # absolute deadline points lie below it
    if (limit_factor * (Lmax + Dmax + Jmax) + tcmax >= _SAFE_TOTAL
            or ((Lmax + Jmax) // Tmin + 1) * tcmax >= _SAFE_TOTAL
            or S * LK >= _SAFE_TOTAL or M * W >= _SAFE_TOTAL):
        raise _VectorRangeError()
    # Per sorted position: its master's tc, segment start, busy period
    # and largest D (the one closing the segment).
    tc_pos = m_tc[sm]
    seg_pos = m_start[sm]
    L_pos = L_of_m[sm]
    maxD_pos = Ds[seg_pos + m_count[sm] - 1]
    # Candidate offsets (kernels.candidate_offsets exactly).  Stream j's
    # absolute deadlines p = D_j + k·T_j (k ≥ 0) up to L + max D are
    # sorted per master by the key m·W + p; stream i's offsets
    # a = p − D_i are the points in its window [D_i, L + D_i], each
    # with the jitter point a − J_j when J_j > 0 and a ≥ J_j, plus
    # a = 0.  One sort of the keys i·LK + a and an adjacent-difference
    # dedup then give every stream's ascending offset list.
    npos = np.flatnonzero(def_norm[sm])
    Dn = Ds[npos]
    cntp = (L_pos[npos] + maxD_pos[npos] - Dn) // Ts[npos] + 1
    NP = int(cntp.sum())
    if NP > _MAX_LANES:
        raise _VectorRangeError()
    pp = np.repeat(npos, cntp)
    kk = np.arange(NP, dtype=i64) - np.repeat(_cs0(np, cntp)[:-1], cntp)
    pkey = sm[pp] * W + Ds[pp] + kk * Ts[pp]
    porder = np.argsort(pkey)
    pkey = pkey[porder]
    pJ = Js[pp[porder]]
    qlo = sm[npos] * W + Dn
    lo = np.searchsorted(pkey, qlo, side="left")
    wc = np.searchsorted(pkey, qlo + L_pos[npos], side="right") - lo
    A = int(wc.sum())
    if 2 * A + S > _MAX_LANES:
        raise _VectorRangeError()
    wlane = np.repeat(np.arange(len(npos)), wc)
    wpos = np.arange(A, dtype=i64) + (lo - _cs0(np, wc)[:-1]).take(wlane)
    a_vals = pkey.take(wpos) - qlo.take(wlane)
    a_keys = (npos * LK).take(wlane) + a_vals
    Jw = pJ.take(wpos)
    keep_j = (Jw > 0) & (a_vals >= Jw)
    keys = np.concatenate([npos * LK, a_keys, (a_keys - Jw)[keep_j]])
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    # One capped lane per (stream, offset), offsets ascending per stream.
    lane_p = keys // LK
    lane_a = keys - lane_p * LK
    nl = len(lane_p)
    tc_L = tc_pos.take(lane_p)
    mstart_l = seg_pos.take(lane_p)
    D_i, T_i, J_i = Ds.take(lane_p), Ts.take(lane_p), Js.take(lane_p)
    dl = lane_a + D_i
    Bl = np.where(maxD_pos.take(lane_p) > dl, tc_L, 0)
    own = ((lane_a + J_i) // T_i) * tc_L
    lim_l = limit_factor * (L_pos.take(lane_p) + D_i + J_i) + tc_L
    # Deadline scope (D_j ≤ a + D_i, j ≠ i): the master's sorted prefix
    # up to key m·D1 + min(a + D_i, Dmax), minus the lane's own
    # position (order within a lane is irrelevant — the map sums it).
    top = np.searchsorted(
        skey, skey.take(lane_p) + np.minimum(lane_a, Dmax - D_i),
        side="right")
    cnts = top - mstart_l - 1
    EC = int(cnts.sum())
    if EC > _MAX_LANES:
        raise _VectorRangeError()
    elane = np.repeat(np.arange(nl), cnts)
    sp = np.arange(EC, dtype=i64) + (
        mstart_l - _cs0(np, cnts)[:-1]).take(elane)
    sp += sp >= lane_p.take(elane)
    eT2, eJ2 = Ts.take(sp), Js.take(sp)
    eC2 = tc_L.take(elane)
    cap = 1 + (dl.take(elane) + (Js - Ds).take(sp)) // eT2
    kseed = np.minimum((1 + Js // Ts).take(sp), cap)
    if (int(kseed.max(initial=0)) * int(eC2.max(initial=0))
            * int(cnts.max(initial=0))
            + int(Bl.max(initial=0)) + int(own.max(initial=0))
            >= _SAFE_TOTAL):
        raise _VectorRangeError()
    base_l = Bl + own
    csz = _cs0(np, kseed * eC2)
    ends = np.cumsum(cnts)
    x0_l = base_l + csz[ends] - csz[ends - cnts]
    x, _conv, it = _lanes_np("capped", base_l, x0_l, lim_l, cnts,
                             eC2, eT2, eJ2, cap)
    _counters.vectorized += it
    # r from the exit value (converged or overshoot — the scalar keeps
    # both); fold per stream = first strict maximum over ascending a.
    r = np.maximum(tc_L + x - lane_a, tc_L)
    fstart = np.nonzero(np.concatenate(([True], lane_p[1:] != lane_p[:-1])))[0]
    seg_counts = np.diff(np.concatenate((fstart, [nl])))
    best = np.maximum.reduceat(r, fstart)
    cand = np.where(r == np.repeat(best, seg_counts),
                    np.arange(nl, dtype=i64), nl)
    first = np.minimum.reduceat(cand, fstart)
    sid = dord["order"][lane_p[fstart]]
    resp[sid] = best
    crit[sid] = lane_a[first]
    valid[sid] = True
    return resp, crit, valid


def _flat_values(pack: NetworkPack, policy: str):
    """``(resp, crit_or_None, valid)`` for a policy, flat over the
    packed streams in declaration order (``valid`` False =
    unschedulable), cached on the pack.  Raises
    :class:`_VectorRangeError` when an int64 pass could wrap or
    over-allocate."""
    flat = pack._flat.get(policy)
    if flat is None:
        if policy == "fcfs":
            flat = _fcfs_flat_np(pack)
        elif policy == "dm":
            flat = _dm_flat_np(pack)
        elif policy == "edf":
            flat = _edf_flat_np(pack)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        pack._flat[policy] = flat
    return flat


def batch_summaries(pack: NetworkPack, policy: str):
    """``(original_index, tcycle, schedulable, worst_response,
    worst_slack)`` per packed network — the fully-folded
    :class:`repro.perf.batch.BatchResult` fields."""
    return list(zip(*summary_columns(pack, policy)))


def summary_columns(pack: NetworkPack, policy: str):
    """:func:`batch_summaries` as five lists — original indices,
    tcycles, schedulable flags, worst responses and worst slacks, one
    entry per packed network, folded over the network CSR with
    ``reduceat``.  Raises :class:`_VectorRangeError` as
    :func:`_flat_values` does."""
    resp, _crit, valid = _flat_values(pack, policy)
    np = _load_numpy()
    d = pack.np_arrays()
    i64 = np.int64
    aD = d["aD"]
    nss = d["nss"]
    P = pack.n_packed
    cnt = nss[1:] - nss[:-1]
    ok = valid & (resp <= aD)
    cso = _cs0(np, ok.astype(i64))
    sched = (cso[nss[1:]] - cso[nss[:-1]]) == cnt
    BIG = np.iinfo(i64).max  # "no slack" sentinel, above any D − R
    wr_m = np.full(P, -1, dtype=i64)
    sl_m = np.full(P, BIG, dtype=i64)
    nzn = cnt > 0
    if nzn.any():
        starts = nss[:-1][nzn]
        wr_m[nzn] = np.maximum.reduceat(np.where(valid, resp, -1), starts)
        sl_m[nzn] = np.minimum.reduceat(np.where(valid, aD - resp, BIG),
                                        starts)
    return (pack.indices, pack.tc, sched.tolist(),
            _ints_or_none(wr_m, wr_m < 0),
            _ints_or_none(sl_m, ~sched | (sl_m >= BIG)))


def _ints_or_none(values, none_at) -> List[Optional[int]]:
    """``values`` as python ints, ``None`` where ``none_at`` holds."""
    if not none_at.any():
        return values.tolist()
    out = values.astype(object)
    out[none_at] = None
    return out.tolist()


def response_rows(network, policy: str,
                  ttr: Optional[int] = None) -> Dict[str, Any]:
    """``{"tcycle": …, "rows": [[master, stream, R], …]}`` for one
    network, read straight from the lanes' flat arrays — the same shape
    as the golden ``analysis`` rows, for the three-way oracles.  Without
    numpy, for an unpackable network or on :class:`_VectorRangeError`
    it falls back to the scalar analysis (identical semantics)."""
    if _load_numpy() is not None:
        pack = pack_networks([network], ttr=ttr)
        if not pack.fallback:
            try:
                resp, _crit, valid = _flat_values(pack, policy)
            except _VectorRangeError:
                pass
            else:
                names = [(master.name, stream.name)
                         for master in network.masters
                         for stream in master.high_streams]
                rows = [[m, s, r if ok else None] for (m, s), r, ok
                        in zip(names, resp.tolist(), valid.tolist())]
                return {"tcycle": pack.tc[0], "rows": rows}
    from ..profibus import ttr as ttr_mod

    res = ttr_mod.analyse(network, policy, ttr=ttr)
    return {
        "tcycle": res.tcycle,
        "rows": [[sr.master, sr.stream.name, sr.R] for sr in res.per_stream],
    }
