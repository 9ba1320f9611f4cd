import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profilerank import special

import oracles

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


def _betainc(a, b, x):
    # I_x(a, b) for 0 < x < 1 through the kernel of Student's t tail, which
    # takes x's complement and both logarithms from its caller.
    return special._betainc(a, b, x, 1.0 - x, math.log(x), math.log1p(-x))


def test_betainc_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.uniform(0.1, 50.0))
        x = float(rng.random())
        assert _betainc(a, b, x) == pytest.approx(
            float(scipy.special.betainc(a, b, x)), abs=1e-12
        )


def test_betainc_against_scipy_with_one_large_parameter():
    # From 10 on, lgamma(a + b) - lgamma(a) comes from Stirling's series:
    # as a difference of two lgammas it was off by up to 1e-12 here.
    rng = np.random.default_rng(6)
    for _ in range(300):
        a = float(rng.uniform(100.0, 1e4))
        b = float(rng.uniform(0.1, 50.0))
        x = float(rng.random())
        for p, q in ((a, b), (b, a)):
            assert _betainc(p, q, x) == pytest.approx(
                float(scipy.special.betainc(p, q, x)), abs=1e-13
            )


def test_t_cdf_against_scipy():
    for df in (1.0, 2.5, 17.0, 21.0, 250.0):
        for t in (-8.0, -1.2, 0.0, 0.4, 2.1, 9.0):
            assert special.student_t_sf(-t, df) == pytest.approx(
                float(scipy.stats.t.cdf(t, df)), abs=1e-12
            )
    assert special.student_t_sf(-1.3, math.inf) == pytest.approx(
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


@pytest.mark.parametrize("alpha, df", [
    (1e-300, 17.2), (1e-20, 1.0), (1e-12, 0.5), (1e-300, 27.0), (1e-300, 2.0), (1e-300, 1.0),
])
def test_t_quantile_past_the_bisection_bracket(alpha, df):
    # t* from 6e11 (27 df) to 3e299 (1 df, where t*t overflows): never
    # below the true quantile, and within 1e-11 of it.
    want = float(scipy.stats.t.isf(alpha, df))
    got = special.student_t_upper_quantile(alpha, df)
    assert got >= want
    assert got == pytest.approx(want, rel=1e-11)


def test_t_quantile_beyond_the_float_range_is_inf():
    # At the largest float, P(T > t) at 0.5 df is still above 1e-300: it is
    # at least its series' leading term, 0.5 * x**a / (a * B(a, 1/2)) with
    # a = df / 2 and x = df / (df + t*t), taken in logs here.
    a, log_x = 0.25, math.log(0.5) - 2.0 * math.log(np.finfo(float).max)
    log_tail = math.log(0.5) + a * log_x - math.log(a) - scipy.special.betaln(a, 0.5)
    assert log_tail > math.log(1e-300)
    assert special.student_t_upper_quantile(1e-300, 0.5) == math.inf
    assert special.student_t_upper_quantile(5e-324, 0.5) == math.inf


def _far_tail_closed_form(t, df):
    # The leading term of P(T > t), 0.5 * x**a / (a * B(a, 1/2)) with
    # a = df / 2 and x = df / t**2, taken in logs: exact to double
    # precision once t**2 exceeds df by 1e22.
    a = 0.5 * df
    return 0.5 * math.exp(a * (math.log(df) - 2.0 * math.log(t)) - math.log(a)
                          - scipy.special.betaln(a, 0.5))


@pytest.mark.parametrize("t", [1e13, 1e100, 1e160, 1e200, 1e300])
@pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 17.2])
def test_t_tail_past_the_overflow_of_t_squared(t, df):
    # Past t ~ 1.3e154, t*t overflows and the incomplete beta's argument
    # rounds to 0 (scipy's t.sf returns 0 there too). The tail is 0.0 only
    # where its closed form underflows; a subnormal one is exact to its
    # last place.
    want = _far_tail_closed_form(t, df)
    got = special.student_t_sf(t, df)
    assert got == pytest.approx(want, rel=1e-12, abs=5e-324)
    assert (got == 0.0) == (want == 0.0)
    # From 30 df on, the tail past 2**39 is below the smallest float.
    assert special.student_t_sf(t, 30.0) == special.student_t_sf(t, 1e30) == 0.0
    if got >= np.finfo(float).tiny:  # a normal float: t* round-trips
        back = special.student_t_upper_quantile(got, df)
        assert t <= back <= t * (1.0 + 1e-11)


@pytest.mark.parametrize("df", [0.5, 1.0, 17.2, 27.0])
def test_t_tail_is_continuous_where_its_leading_term_takes_over(df):
    near = special.student_t_sf(2.0**39, df)
    far = special.student_t_sf(np.nextafter(2.0**39, math.inf), df)
    assert far == pytest.approx(near, rel=1e-12, abs=5e-324)
    assert far == pytest.approx(_far_tail_closed_form(2.0**39, df), rel=1e-12,
                                abs=5e-324)


def test_t_tail_against_scipy_at_large_df():
    # df from 1e3 to 1e300 in steps of 10**0.5, and both sides of the
    # switch to Hill's transformation. Within 1e-9 relative on both sides,
    # wherever scipy's value is a normal float: below it the incomplete beta
    # is within ~5e-10, from it on Hill's transformation within ~1e-12.
    t = np.concatenate([np.logspace(-3.0, 3.0, 61), -np.logspace(-3.0, 3.0, 13)])
    for df in [*10.0 ** np.arange(3.0, 300.1, 0.5), np.nextafter(special._HILL_DF, 0.0),
               special._HILL_DF]:
        for sign, theirs in ((1.0, scipy.stats.t.sf), (-1.0, scipy.stats.t.cdf)):
            want = theirs(t, df)
            normal = want >= np.finfo(float).tiny
            got = np.array([special.student_t_sf(sign * x, df) for x in t[normal]])
            np.testing.assert_allclose(got, want[normal], rtol=1e-9, atol=0.0,
                                       err_msg=f"{theirs.__name__} at df = {df!r}")


@pytest.mark.parametrize("df", [0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 5e3,
                                np.nextafter(special._HILL_DF, 0.0)])
def test_t_tail_against_scipy_at_small_t(df):
    # At small |t| the incomplete beta takes its symmetry, on the complement
    # of x = df / (df + t*t), taken from t*t / df, which keeps its digits
    # where x rounds towards 1: 1 - x was off by up to 3.9e-7 relative just
    # below 1e4 df.
    t = np.geomspace(1e-6, np.nextafter(1.0, 0.0), 200)
    for x in (t, -t):
        got = np.array([special.student_t_sf(v, df) for v in x])
        np.testing.assert_allclose(got, scipy.stats.t.sf(x, df), rtol=1e-10, atol=0.0)


def test_t_tail_against_scipy_below_the_hill_switch():
    # lgamma(a + b) - lgamma(a) comes from Stirling's series from a = 10 on:
    # the tail was off by up to 8.4e-11 relative at t = 1.645 just below 1e4
    # df, where 1 - I_{1-x} magnified a cancelled lgamma.
    t = np.geomspace(1e-3, 1e2, 200)
    for df in (0.5, 3.0, 30.0, 100.0, 1e3, 5e3, 8.2e3, np.nextafter(special._HILL_DF, 0.0)):
        for x in (t, -t):
            want = scipy.stats.t.sf(x, df)
            normal = want >= np.finfo(float).tiny
            got = np.array([special.student_t_sf(v, df) for v in x[normal]])
            np.testing.assert_allclose(got, want[normal], rtol=5e-12, atol=0.0,
                                       err_msg=f"df = {df!r}")


def test_t_tail_has_no_step_where_its_forms_once_met_or_meet_now():
    # Two incomplete-beta forms once met at |t| = 1, with a step of up to
    # 6e-12 relative. At t*t = 3 df / (df + 2) I_x(df/2, 1/2) turns to its
    # symmetry; the step there was up to 6.8e-13 while x = df / (df + t*t)
    # was rounded before (df/2) * log(x) scaled it, and 3.8e-13 on this
    # grid while lgamma(a + b) - lgamma(a) cancelled below a = 100.
    for df in np.geomspace(0.5, np.nextafter(special._HILL_DF, 0.0), 400):
        for t, rel in ((1.0, 1e-13), (math.sqrt(3.0 * df / (df + 2.0)), 1e-13)):
            below = special.student_t_sf(np.nextafter(t, 0.0), df)
            above = special.student_t_sf(np.nextafter(t, math.inf), df)
            assert below == pytest.approx(above, rel=rel, abs=0.0), (df, t)


def test_t_tail_against_mpmath():
    # The tail is I_x(df/2, 1/2) / 2 at x = df / (df + t*t), here at 40
    # digits; t runs through the switch to the symmetry at t*t = 3 df / (df + 2).
    with mpmath.workdps(40):
        for df in np.geomspace(0.5, 500.0, 40):
            df = float(df)
            for t in (0.5, 1.0, math.sqrt(3.0 * df / (df + 2.0)), 2.0, 3.0, 5.0):
                x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                tail = float(mpmath.betainc(df / 2, 0.5, 0, x, regularized=True) / 2)
                assert special.student_t_sf(t, df) == pytest.approx(tail, rel=1e-13, abs=0.0), (
                    df, t)


@pytest.mark.parametrize("df", [0.5, 3.0, 1e3, special._HILL_DF, 1e30, math.inf])
def test_t_tail_at_an_infinite_t(df):
    assert special.student_t_sf(math.inf, df) == 0.0
    assert special.student_t_sf(-math.inf, df) == 1.0


@pytest.mark.parametrize("t", [5e-324, 1e-200, 1e-162])
@pytest.mark.parametrize("df", [0.5, 3.0, 1e3])
def test_t_tail_is_one_half_where_t_squared_underflows(t, df):
    # The tail is 1/2 less about 0.4 |t|, which rounds to 1/2 exactly.
    assert t * t == 0.0
    for x in (t, -t):
        assert special.student_t_sf(x, df) == 0.5


def test_t_tail_rejects_a_nonpositive_df():
    # The quantile's refusal is the tail's, raised by its first call.
    for df in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="df must be positive"):
            special.student_t_sf(1.0, df)
        with pytest.raises(ValueError, match="df must be positive"):
            special.student_t_upper_quantile(0.05, df)


def _log_uniform(rng, lo, hi, n):
    return (10.0 ** rng.uniform(lo, hi, n)).tolist()


def test_series_and_continued_fraction_match_the_written_out_loops():
    # d0, s0_2 and t* reach moderation.json and the pass counts, and every
    # other test here allows an error of 1e-12; this one pins their bits.
    rng = np.random.default_rng(39)
    xs = _log_uniform(rng, -6.0, 6.0, 4000) + [special._ASYMPTOTIC_MIN, 5.999999999999999]
    for name in ("digamma", "trigamma", "tetragamma"):
        ours, theirs = getattr(special, name), getattr(oracles, name)
        assert [ours(x) for x in xs] == [theirs(x) for x in xs], name
    zs = _log_uniform(rng, 1.0, 8.0, 2000) + [special._STIRLING_MIN]
    assert [special._stirling_rest(z) for z in zs] == [oracles.stirling_rest(z) for z in zs]
    cases = list(zip(_log_uniform(rng, -1.0, 4.0, 2000), _log_uniform(rng, -1.0, 4.0, 2000),
                     rng.uniform(0.0, 1.0, 2000).tolist()))
    # d = 1 - (a + b) x / (a + 1) is 0 here, so the first update clamps it.
    cases.append((1.0, 3.0, 0.5))
    assert [special._betacf(*c) for c in cases] == [oracles.betacf(*c) for c in cases]


def test_t_tail_and_quantile_keep_their_bits_through_the_written_out_loops(monkeypatch):
    rng = np.random.default_rng(40)
    ts = [s * t for s, t in zip(rng.choice([-1.0, 1.0], 2500).tolist(),
                                _log_uniform(rng, -3.0, 12.0, 2500))]
    dfs = _log_uniform(rng, -1.0, 6.0, 2500)
    quantile_dfs = _log_uniform(rng, -1.0, 6.0, 60)
    alphas = (0.4, 0.05, 1e-10, 1e-300)
    ys = _log_uniform(rng, -6.0, 6.0, 500)

    def run():
        # __wrapped__ skips the quantile's cache, which would serve the
        # second run from the first.
        return ([special.student_t_sf(t, df) for t, df in zip(ts, dfs)],
                [special.student_t_upper_quantile.__wrapped__(a, df)
                 for a in alphas for df in quantile_dfs],
                [special.trigamma_inverse(y) for y in ys])

    ours = run()
    for name in ("trigamma", "tetragamma"):
        monkeypatch.setattr(special, name, getattr(oracles, name))
    monkeypatch.setattr(special, "_betacf", oracles.betacf)
    monkeypatch.setattr(special, "_stirling_rest", oracles.stirling_rest)
    assert ours == run()


def test_t_quantile_never_rises_as_df_rises():
    # From 1e3 to 1e300 df in steps of 10**(1/8): t* falls towards the
    # normal quantile and reaches it, matching scipy on the way. Near the
    # switch-over t* falls by ~5e-5 between grid points, against the
    # branches' disagreement of at most 1e-9 in the tail there.
    grid = np.sort([*10.0 ** (np.arange(24, 2401) / 8.0), np.nextafter(special._HILL_DF, 0.0)])
    assert special._HILL_DF in grid
    for alpha in (0.4, 0.05, 1e-6, 1e-300):
        tstar = np.array([special.student_t_upper_quantile(alpha, df) for df in grid])
        assert np.all(np.diff(tstar) <= 0.0)
        assert tstar[-1] == pytest.approx(special.student_t_upper_quantile(alpha, math.inf),
                                          rel=1e-12)
        np.testing.assert_allclose(tstar[::4], scipy.stats.t.isf(alpha, grid[::4]),
                                   rtol=1e-10)


def test_normal_quantile():
    assert special.student_t_upper_quantile(0.05, math.inf) == pytest.approx(
        float(scipy.stats.norm.isf(0.05)), abs=1e-10
    )


def test_quantile_alpha_domain():
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(ValueError):
            special.student_t_upper_quantile(bad, 17.0)
        with pytest.raises(ValueError):
            special.student_t_upper_quantile(bad, math.inf)
    with pytest.raises(ValueError):
        special.student_t_upper_quantile(0.05, 0.0)
