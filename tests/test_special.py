import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profilerank import special

# High-precision references (30-digit arithmetic, frozen). The points cover
# the half-integer arguments the moderation step actually evaluates.
DIGAMMA_REFS = {
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    8.5: 2.0800908175794201214,
    17.0 / 2.0: 2.0800908175794201214,
}
TRIGAMMA_REFS = {
    0.5: 4.9348022005446793094,
    1.0: 1.6449340668482264365,
    2.0: 0.64493406684822643647,
    8.5: 0.12483811891892602199,
    17.0 / 2.0: 0.12483811891892602199,
}


@pytest.mark.parametrize("x,expected", sorted(DIGAMMA_REFS.items()))
def test_digamma_reference_values(x, expected):
    assert special.digamma(x) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("x,expected", sorted(TRIGAMMA_REFS.items()))
def test_trigamma_reference_values(x, expected):
    assert special.trigamma(x) == pytest.approx(expected, abs=1e-10)


def test_polygamma_against_scipy_on_a_grid():
    xs = np.concatenate([np.linspace(0.05, 8, 60), np.linspace(8, 300, 40)])
    for x in xs:
        x = float(x)
        assert special.digamma(x) == pytest.approx(
            float(scipy.special.digamma(x)), abs=1e-11, rel=1e-11
        )
        assert special.trigamma(x) == pytest.approx(
            float(scipy.special.polygamma(1, x)), abs=1e-11, rel=1e-11
        )
        assert special.tetragamma(x) == pytest.approx(
            float(scipy.special.polygamma(2, x)), abs=1e-10, rel=1e-9
        )


def test_polygamma_rejects_nonpositive():
    for fn in (special.digamma, special.trigamma, special.tetragamma):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.5)


# Newton runs for x in [1e-6, 1e7], the whole band between the two closed
# forms; a scan of 20 001 log-spaced x over it took at most 15 of the 50
# allowed steps, so the round trip holds to rounding.
@given(st.floats(min_value=1e-6, max_value=1e7))
@example(1e-6)
@example(1e7)
@settings(max_examples=60, deadline=None)
def test_trigamma_inverse_roundtrip(x):
    y = special.trigamma_inverse(x)
    assert special.trigamma(y) == pytest.approx(x, rel=1e-12)


def test_trigamma_inverse_extreme_arguments():
    assert special.trigamma_inverse(1e8) == pytest.approx(1e-4, rel=1e-3)
    assert special.trigamma_inverse(1e-7) == pytest.approx(1e7, rel=1e-3)


def test_betainc_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.uniform(0.1, 50.0))
        x = float(rng.random())
        assert special.betainc(a, b, x) == pytest.approx(
            float(scipy.special.betainc(a, b, x)), abs=1e-12
        )
    assert special.betainc(2.0, 3.0, 0.0) == 0.0
    assert special.betainc(2.0, 3.0, 1.0) == 1.0


def test_betainc_domain_errors():
    with pytest.raises(ValueError):
        special.betainc(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        special.betainc(1.0, 2.0, 1.5)


def test_t_cdf_against_scipy():
    for df in (1.0, 2.5, 17.0, 21.0, 250.0):
        for t in (-8.0, -1.2, 0.0, 0.4, 2.1, 9.0):
            assert special.student_t_cdf(t, df) == pytest.approx(
                float(scipy.stats.t.cdf(t, df)), abs=1e-12
            )
    assert special.student_t_cdf(1.3, math.inf) == pytest.approx(
        float(scipy.stats.norm.cdf(1.3)), abs=1e-12
    )


def _quantile_by_bisection_on_scipy_cdf(alpha, df):
    # Independent oracle: bisection against scipy's t CDF.
    lo, hi = 0.0, 1.0
    while 1.0 - scipy.stats.t.cdf(hi, df) > alpha:
        lo, hi = hi, hi * 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 1.0 - scipy.stats.t.cdf(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_t_quantile_matches_bisection_oracle():
    # The working quantile of the primary design: alpha 0.05 at 17 df.
    tstar = special.student_t_upper_quantile(0.05, 17.0)
    assert tstar == pytest.approx(1.7396, abs=1e-4)
    assert tstar == pytest.approx(
        _quantile_by_bisection_on_scipy_cdf(0.05, 17.0), abs=1e-6
    )
    for alpha in (0.4, 0.1, 0.025, 0.005):
        for df in (3.0, 17.0, 40.0):
            assert special.student_t_upper_quantile(alpha, df) == pytest.approx(
                float(scipy.stats.t.isf(alpha, df)), abs=1e-8
            )


def test_normal_quantile():
    assert special.normal_upper_quantile(0.05) == pytest.approx(
        float(scipy.stats.norm.isf(0.05)), abs=1e-10
    )
    assert special.student_t_upper_quantile(0.05, math.inf) == pytest.approx(
        special.normal_upper_quantile(0.05), abs=1e-12
    )


def test_quantile_alpha_domain():
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(ValueError):
            special.student_t_upper_quantile(bad, 17.0)
        with pytest.raises(ValueError):
            special.normal_upper_quantile(bad)
    with pytest.raises(ValueError):
        special.student_t_upper_quantile(0.05, 0.0)
