"""Exact time arithmetic and fixed-point iteration helpers.

Every recursive schedulability equation in the paper (eqs. (1), (6), (9),
(16), (17)) is a monotone fixed-point iteration over ceiling/floor terms.
This module centralises:

* ``ceil_div`` / ``floor_div`` — exact for ``int`` and
  :class:`fractions.Fraction`, epsilon-guarded for ``float`` so that
  values that are *mathematically* integral (but carry float rounding
  noise) do not get bumped to the next integer;
* ``fixed_point`` — a generic driver with a divergence limit so that
  unschedulable inputs are reported as such instead of looping forever;
* small numeric helpers (``lcm_all`` for hyperperiods, ``pos`` for the
  ``(x)^+`` operator used in the demand-bound equations).

Times may be ``int`` (recommended: express everything in bit-times or
microseconds), ``float`` or ``Fraction``; a single analysis should stick
to one representation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple, Union

from ..perf.stats import counters as _counters

Number = Union[int, float, Fraction]

#: Relative epsilon used to absorb float rounding noise in ceil/floor.
FLOAT_EPS = 1e-9


def _is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def ceil_div(a: Number, b: Number) -> int:
    """Return ``ceil(a / b)`` exactly.

    ``b`` must be positive.  For floats a relative epsilon absorbs
    representation noise: ``ceil_div(0.3 * 10, 1.0) == 3``.
    """
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b!r}")
    if _is_exact(a) and _is_exact(b):
        if isinstance(a, int) and isinstance(b, int):
            return -((-a) // b)
        q = Fraction(a) / Fraction(b)
        return math.ceil(q)
    q = a / b
    eps = FLOAT_EPS * max(1.0, abs(q))
    return math.ceil(q - eps)


def floor_div(a: Number, b: Number) -> int:
    """Return ``floor(a / b)`` exactly (epsilon-guarded for floats)."""
    if b <= 0:
        raise ValueError(f"floor_div requires b > 0, got {b!r}")
    if _is_exact(a) and _is_exact(b):
        if isinstance(a, int) and isinstance(b, int):
            return a // b
        q = Fraction(a) / Fraction(b)
        return math.floor(q)
    q = a / b
    eps = FLOAT_EPS * max(1.0, abs(q))
    return math.floor(q + eps)


def pos(x: Number) -> Number:
    """The ``(x)^+`` operator: ``max(x, 0)``."""
    return x if x > 0 else 0


def almost_equal(a: Number, b: Number, rel: float = FLOAT_EPS) -> bool:
    """Equality that tolerates float rounding; exact for int/Fraction."""
    if _is_exact(a) and _is_exact(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def lcm_all(values: Iterable[int]) -> int:
    """Least common multiple of a collection of positive integers."""
    out = 1
    seen = False
    for v in values:
        seen = True
        if not isinstance(v, int) or v <= 0:
            raise ValueError(f"lcm_all requires positive ints, got {v!r}")
        out = out * v // math.gcd(out, v)
    if not seen:
        raise ValueError("lcm_all requires at least one value")
    return out


def hyperperiod(periods: Iterable[Number]) -> Optional[int]:
    """Hyperperiod (LCM of periods) when all periods are integers.

    Returns ``None`` when any period is not an exact integer — callers
    fall back to a simulation horizon heuristic in that case.
    """
    ints = []
    for p in periods:
        if isinstance(p, int):
            ints.append(p)
        elif isinstance(p, Fraction) and p.denominator == 1:
            ints.append(int(p))
        elif isinstance(p, float) and p.is_integer():
            ints.append(int(p))
        else:
            return None
    return lcm_all(ints)


class DivergedError(RuntimeError):
    """Raised when a fixed-point iteration exceeds its divergence bound."""

    def __init__(self, message: str, last_value: Number):
        super().__init__(message)
        self.last_value = last_value


def fixed_point(
    func: Callable[[Number], Number],
    start: Number,
    limit: Optional[Number] = None,
    max_iter: int = 1_000_000,
) -> Tuple[Number, int, bool]:
    """Iterate ``x <- func(x)`` from ``start`` until convergence.

    ``func`` must be monotone non-decreasing in ``x`` (all the recursions
    in this library are: they are sums of ``ceil(x/T)*C`` terms).

    Returns ``(value, iterations, converged)``.  If ``limit`` is given and
    an iterate exceeds it, returns ``(value, iterations, False)`` — the
    caller interprets this as "not schedulable by this test".  Raises
    :class:`DivergedError` only if ``max_iter`` is exhausted without
    either converging or crossing ``limit`` (which indicates a bug or a
    pathological float input, not unschedulability).
    """
    x = start
    for it in range(1, max_iter + 1):
        nxt = func(x)
        if nxt < x:
            raise ValueError(
                f"fixed_point requires a monotone map; f({x!r}) = {nxt!r} decreased"
            )
        if almost_equal(nxt, x):
            _counters.generic += it
            return nxt, it, True
        if limit is not None and nxt > limit:
            _counters.generic += it
            return nxt, it, False
        x = nxt
    raise DivergedError(
        f"fixed-point iteration did not settle after {max_iter} iterations",
        x,
    )
