"""Scalar special functions used by variance moderation and t-based decisions.

Everything here is implemented locally so the core library depends only on
numpy: polygamma functions via upward recurrence plus asymptotic series,
the regularized incomplete beta via a continued fraction, and distribution
quantiles via bisection on the corresponding CDF. Student's t tail has two
forms: below 1e4 degrees of freedom it is the incomplete beta at every t,
its argument, complement and their logarithms all taken from t*t/df; from
1e4 df on it is the normal tail at Hill's transformation of t. Only a t*
past the bisection's bracket (a tiny alpha at a few df) comes from the
tail's leading term, in closed form. Accuracy is ~1e-12 over the argument
ranges that arise in practice (positive arguments, moderate degrees of
freedom), and the t tail is within 1e-12 relative below 1e4 df (for |t| up
to 100) and from 1e4 df on, which the test suite pins against independent
references (to 5e-12 below 1e4 df and 1e-9 from 1e3 df on).
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "digamma",
    "trigamma",
    "tetragamma",
    "trigamma_inverse",
    "betainc",
    "student_t_cdf",
    "student_t_sf",
    "student_t_upper_quantile",
]

# Asymptotic expansions in powers of 1/x**2, valid once x >= _ASYMPTOTIC_MIN.
# Coefficients are Bernoulli-number combinations; the truncation error at
# x = 6 is below 1e-11 for all three functions.
_ASYMPTOTIC_MIN = 6.0

_DIGAMMA_COEFFS = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_TETRAGAMMA_COEFFS = (
    -1.0 / 2.0,
    1.0 / 6.0,
    -1.0 / 6.0,
    3.0 / 10.0,
    -5.0 / 6.0,
    691.0 / 210.0,
)

# From this many df on, Student's t tail is ``_hill_tail``. The incomplete
# beta loses digits as df grows: at t = 3 it is off by 3.7e-11 relative at
# 1e6 df, 3.1e-7 at 1e10 and 1% at 1e15. Hill's transformation is within
# 1e-12 from 1e4 df on; below 1e4 df the incomplete beta is within 1e-12.
_HILL_DF = 1e4

# From this a or b on, ``betainc`` takes ``lgamma(a + b) - lgamma(a)`` (a the
# larger) from Stirling's series instead of as a difference of two lgammas,
# values that near a = 100 are ~360 and cancel to a few units.
_STIRLING_MIN = 10.0

# Stirling's series for lgamma(z) past its leading terms: the coefficients
# B_2k / (2k (2k - 1)) of 1/z, 1/z**3, ..., 1/z**13. The first term left
# out, 3617 / (122400 z**15), is below 3e-17 from _STIRLING_MIN on.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not (0.0 < x < math.inf):
        raise ValueError(f"{name} must be a positive finite number, got {x!r}")
    return x


def digamma(x: float) -> float:
    """First derivative of log-gamma, for x > 0."""
    x = _require_positive(x, "x")
    acc = 0.0
    while x < _ASYMPTOTIC_MIN:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_COEFFS:
        series += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x + series


def trigamma(x: float) -> float:
    """Second derivative of log-gamma, for x > 0."""
    x = _require_positive(x, "x")
    acc = 0.0
    while x < _ASYMPTOTIC_MIN:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    power = inv * inv2
    for c in _TRIGAMMA_COEFFS:
        series += c * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + series


def tetragamma(x: float) -> float:
    """Third derivative of log-gamma, for x > 0."""
    x = _require_positive(x, "x")
    acc = 0.0
    while x < _ASYMPTOTIC_MIN:
        acc -= 2.0 / (x * x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    power = inv2 * inv2
    for c in _TETRAGAMMA_COEFFS:
        series += c * power
        power *= inv2
    return acc - inv2 - inv * inv2 + series


def trigamma_inverse(x: float) -> float:
    """Solve trigamma(y) = x for y > 0.

    Newton iteration on the reciprocal (which is nearly linear in y),
    started from y = 0.5 + 1/x, until a step moves y by less than 1e-8
    relative (at most 50 steps). Extreme arguments use the limiting forms
    trigamma(y) ~ 1/y (large y) and ~ 1/y**2 (small y).
    """
    x = _require_positive(x, "x")
    if x > 1e7:
        return 1.0 / math.sqrt(x)
    if x < 1e-6:
        return 1.0 / x
    y = 0.5 + 1.0 / x
    for _ in range(50):
        tri = trigamma(y)
        step = tri * (1.0 - tri / x) / tetragamma(y)
        y += step
        if -step / y < 1e-8:
            break
    return y


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    max_iter = 300
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _stirling_rest(z: float) -> float:
    """``lgamma(z) - ((z - 1/2) * log(z) - z + log(2 pi) / 2)``, Stirling's
    series to its ``1/(156 z**13)`` term, within 3e-17 from
    ``_STIRLING_MIN`` on."""
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0.0
    power = inv
    for c in _STIRLING_COEFFS:
        series += c * power
        power *= inv2
    return series


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), for a, b > 0."""
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    x = float(x)
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _betainc(a, b, x, 1.0 - x, math.log(x), math.log1p(-x))


def _betainc(a: float, b: float, x: float, y: float, log_x: float, log_y: float) -> float:
    """I_x(a, b) from x, its complement y = 1 - x and both logarithms, which
    the caller takes in whatever form keeps their digits."""
    big, small = max(a, b), min(a, b)
    if big >= _STIRLING_MIN:
        # lgamma(big + small) - lgamma(big) from Stirling's series, free of
        # the cancellation of two values near big * log(big).
        ln_ratio = ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small)
                    - small + _stirling_rest(big + small) - _stirling_rest(big))
        ln_inv_beta = ln_ratio - math.lgamma(small)
    else:
        ln_inv_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(ln_inv_beta + a * log_x + b * log_y)
    # The continued fraction converges fast on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_y(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom (df = inf allowed).

    Below ``_HILL_DF`` df the tail P(T > |t|) is half the incomplete beta
    ``I_x(df/2, 1/2)`` of ``x = 1 / (1 + r)``, with ``r = t*t / df``. x, its
    complement ``1 / (1 + 1/r)`` and their logarithms ``-log1p(r)`` and
    ``-log1p(1/r)`` all come from r, so no rounding of x is scaled by the
    exponent df/2; once r overflows, ``log1p(r)`` is ``2 log|t| - log df``.
    This is within 1e-12 relative of scipy for |t| up to 100. From
    ``_HILL_DF`` df on the tail is ``_hill_tail``. Where ``t*t / df``
    underflows to 0 the tail is 1/2 to double precision."""
    t = float(t)
    df = float(df)
    if not df > 0.0:
        raise ValueError(f"df must be positive, got {df!r}")
    if math.isinf(df):
        return 0.5 * math.erfc(-t / math.sqrt(2.0))
    r = t * t / df
    if r == 0.0:
        return 0.5
    if df >= _HILL_DF:
        tail = _hill_tail(abs(t), df)
    else:
        log1p_r = math.log1p(r) if r < math.inf else 2.0 * math.log(abs(t)) - math.log(df)
        tail = 0.5 * _betainc(0.5 * df, 0.5, 1.0 / (1.0 + r), 1.0 / (1.0 + 1.0 / r),
                              -log1p_r, -math.log1p(1.0 / r))
    return 1.0 - tail if t > 0.0 else tail


def student_t_sf(t: float, df: float) -> float:
    """P(T > t), the upper tail of Student's t."""
    return student_t_cdf(-t, df)


@lru_cache(maxsize=1024)
def student_t_upper_quantile(alpha: float, df: float) -> float:
    """t* with P(T > t*) = alpha, for alpha in (0, 0.5); df = inf gives the
    normal quantile, through the normal tail that ``student_t_sf`` returns
    there.

    Found by bisection on the locally implemented CDF; the bracket is
    narrowed until the endpoint spread is below 1e-13 relative, which puts
    the CDF error well under 1e-10. A t* past 1e12 (a tiny alpha at a few
    df) comes from the tail's leading term instead, as ``_far_quantile``
    explains; past the float range it is ``inf``, above every finite U.
    Results are memoized: ``ranking._passes`` asks once per distinct df,
    and the cache serves the per-gene ``iut_decision`` and ``cii_decision``
    calls, which repeat those pairs.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    df = float(df)
    if not df > 0.0:
        raise ValueError(f"df must be positive, got {df!r}")
    # student_t_sf(t, df) is continuous and strictly decreasing with value
    # 0.5 at t = 0, so t* lies above 0.
    lo = 0.0
    hi = 1.0
    while student_t_sf(hi, df) > alpha:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            return _far_quantile(alpha, df)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_sf(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def _hill_tail(t: float, df: float) -> float:
    """P(T > t) for t > 0 at ``_HILL_DF`` df or more: the normal tail at
    Hill's (1970, CACM Algorithm 395) transform of t, ``z = (df - 1/2) *
    log(1 + t*t/df)`` corrected to order ``1/df**2``. Against scipy it is
    within 1e-12 relative wherever the tail is a normal float. ``z`` is
    capped at 2000, where the tail has long underflowed to 0.0, so that the
    correction cannot overflow."""
    a = df - 0.5
    b = 48.0 * a * a
    z = min(a * math.log1p(t * t / df), 2000.0)
    y = (((((-0.4 * z - 3.3) * z - 24.0) * z - 85.5) / (0.8 * z * z + 100.0 + b) + z + 3.0) / b
         + 1.0) * math.sqrt(z)
    return 0.5 * math.erfc(y / math.sqrt(2.0))


def _far_quantile(alpha: float, df: float) -> float:
    """``student_t_upper_quantile`` where t* > 2**39. P(T > 2**39) is below
    the smallest positive float, 5e-324, from 30 df on, so df is below 30
    here and ``x = df / (df + t*t)`` is below 1e-22. The upper tail
    ``0.5 * I_x(df/2, 1/2)`` then equals its leading term
    ``0.5 * x**(df/2) / ((df/2) * B(df/2, 1/2))`` to double precision, and
    ``x = df / t**2``, so ``log t*`` has a closed form, free of the overflow
    of ``t*t`` past 1.3e154. t* is rounded up by 1e-12 relative, more than
    the rounding error of its logarithm (at most ~710), so it is never
    below the true quantile; past the float range it is ``inf``."""
    log_beta = math.lgamma(0.5 * df) + math.lgamma(0.5) - math.lgamma(0.5 * df + 0.5)
    log_scale = math.log(df) + log_beta  # log(df * B(df/2, 1/2))
    log_t = 0.5 * math.log(df) - (log_scale + math.log(alpha)) / df
    try:
        return math.exp(log_t) * (1.0 + 1e-12)
    except OverflowError:
        return math.inf
