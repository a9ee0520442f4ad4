import math
import re

import numpy as np
import pytest

from duval_kind import levelset
from duval_kind.levelset import _WG, _WK, _XK, _level_s0, _psi_integral
from duval_kind.quadrature import (
    QuadratureBudgetError,
    QuadratureRangeError,
    integral_Ik,
    integral_Ik_bands,
    structure_form_l2_norm,
    weighted_graph_norm_defect,
)
from oracles import (
    adaptive_1d,
    dominating_integral,
    level_s,
    monte_carlo_Ik,
    monte_carlo_l2_norm,
    structure_form_reference,
)

# Diagonal-slice drill: on rho1 = rho2 = rho with n = 1 the squared norm
# is 3 rho^4, and in v = log rho the radial integrand becomes
# (1/3) e^{-2v} / (log 3 + 4v)^2.  Antiderivative (by substitution
# w = log 3 + 4v and integration by parts):
#   (sqrt(3)/4) * (-e^{-w/2}/w - Ei(-w/2)/2).
# Value over [-10, -1], evaluated with 40-digit arithmetic and frozen:
DIAGONAL_DRILL_INTERVAL = (-10.0, -1.0)
DIAGONAL_DRILL_VALUE = 60016.58223360484575615701773060941499434


def diagonal_slice_integrand(v):
    c = math.log(3.0)
    return np.exp(-2.0 * v) / (3.0 * (c + 4.0 * v) ** 2)


def test_range_errors():
    with pytest.raises(QuadratureRangeError):
        integral_Ik(1, 5, 1e-4)
    with pytest.raises(QuadratureRangeError):
        integral_Ik(1, 0, 1e-4)
    with pytest.raises(QuadratureRangeError):
        integral_Ik(0, 1, 1e-4)
    with pytest.raises(QuadratureRangeError):
        integral_Ik(1, 1, 1e-9)
    with pytest.raises(QuadratureRangeError):
        dominating_integral(1, 5, 1e-4)
    for ks in ((1, 2, 5), (0, 1), (), range(1, 10**18)):
        with pytest.raises(QuadratureRangeError):
            integral_Ik_bands(1, ks, 1e-4)
    with pytest.raises(QuadratureRangeError):
        structure_form_l2_norm(1, 0.7, 1e-4)
    for n in (2**53 + 1, 10**307, 10**400):  # 10**307 overflowed the level coordinates
        with pytest.raises(QuadratureRangeError):
            integral_Ik(n, 1, 1e-4)
        with pytest.raises(QuadratureRangeError):
            structure_form_l2_norm(n, 0.1, 1e-4)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "ks,tol",
    [((1, 2, 3, 4), 1e-4), ((4, 2), 1e-4), ((1, 2, 3, 4), 1e-8), ((4, 2), 1e-8)],
    ids=["ks0", "ks1", "ks0-tol1e-8", "ks1-tol1e-8"],
)
def test_band_family_matches_lone_integrals(n, ks, tol):
    # each row of the family is its band alone: the same panels and
    # truncation bound, and values equal up to rounding (BLAS products over
    # a different number of panels round a row differently);
    # a row uses 61 panels at every tolerance
    family = integral_Ik_bands(n, ks, tol)
    assert len(family) == len(ks)
    for k, row in zip(ks, family):
        alone = integral_Ik(n, k, tol)
        assert row.subregions_used == alone.subregions_used
        assert row.truncation_bound == alone.truncation_bound
        assert row.value == pytest.approx(alone.value, rel=1e-14, abs=0.0)
        assert row.error_estimate == pytest.approx(alone.error_estimate, rel=1e-6, abs=0.0)


def test_integral_positive_finite_and_self_convergent():
    coarse = integral_Ik(1, 1, 1e-3)
    fine = integral_Ik(1, 1, 1e-4)
    assert 0 < fine.value < math.inf
    assert abs(coarse.value - fine.value) <= 1e-3 * fine.value + coarse.error_estimate
    assert fine.truncation_bound < 1e-20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_convergence_under_tolerance_halving(n):
    for k in (1, 2, 3):
        loose = integral_Ik(n, k, 2e-4)
        tight = integral_Ik(n, k, 1e-4)
        assert abs(loose.value - tight.value) <= loose.error_estimate + tight.error_estimate


def test_sequence_decreasing_n1():
    values = [integral_Ik(1, k, 1e-4).value for k in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert max(values) <= 1.01 * values[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uniform_boundedness(n):
    values = [integral_Ik(n, k, 1e-4).value for k in (1, 2, 3, 4)]
    assert max(values) <= 1.01 * values[0]


@pytest.mark.parametrize("k", [1, 2])
def test_monte_carlo_agreement(k):
    quad = integral_Ik(1, k, 1e-4)
    mc = monte_carlo_Ik(1, k, samples=2_000_000)
    combined = math.hypot(quad.error_estimate, mc.standard_error)
    assert abs(quad.value - mc.value) <= 3.0 * combined


def test_dominating_integral_additivity():
    parts = [integral_Ik(1, k, 1e-4) for k in (1, 2, 3)]
    total = dominating_integral(1, 3, 1e-4)
    assert total.value == pytest.approx(
        sum(p.value for p in parts), abs=sum(p.error_estimate for p in parts) + 1e-12
    )


def test_dominating_integral_single_term():
    assert dominating_integral(1, 1, 1e-4).value == integral_Ik(1, 1, 1e-4).value


def test_dominating_integral_increments_shrink():
    results = [dominating_integral(1, kmax, 1e-4).value for kmax in (1, 2, 3, 4)]
    increments = [b - a for a, b in zip(results, results[1:])]
    assert all(i > 0 for i in increments)
    assert increments[2] < increments[0]


def test_value_grows_with_n_at_equal_kmax():
    # for moduli below 1 the pulled-back squared norm shrinks as n grows,
    # so the integrand (and the integral) increases with n
    low = dominating_integral(1, 2, 1e-4)
    high = dominating_integral(3, 2, 1e-4)
    assert 0 < low.value < high.value < math.inf


def test_structure_form_l2_norm_finite_and_monotone():
    for n in (1, 2, 3):
        small = structure_form_l2_norm(n, 0.1, 1e-4)
        large = structure_form_l2_norm(n, 0.2, 1e-4)
        assert 0 < small.value < math.inf
        assert large.value > small.value


def test_structure_form_l2_norm_monte_carlo():
    quad = structure_form_l2_norm(1, 0.1, 1e-4)
    mc = monte_carlo_l2_norm(1, 0.1, samples=1_000_000)
    combined = math.hypot(quad.error_estimate, mc.standard_error)
    assert abs(quad.value - mc.value) <= 3.0 * combined


def test_structure_form_l2_norm_analytic_n1():
    # for n = 1 the region {rho1^4 + rho2^4 + rho1^2 rho2^2 < eps^2}
    # has exactly computable moduli volume: substituting a = rho1^2,
    # b = rho2^2 gives a quarter of the first-quadrant area of
    # {a^2 + ab + b^2 < eps^2}, which is (eps^2/2) int_0^{pi/2}
    # dtheta/(2 + sin 2theta)... evaluated in closed form below
    eps = 0.1
    # area of {a^2+ab+b^2 < 1, a,b > 0} = (2/sqrt(3)) * (pi/3) / ... :
    # int_0^{pi/2} dtheta / (2 + sin 2theta) over r^2(2+sin2theta)/2 < 1
    from scipy.integrate import quad as scipy_quad

    area, _ = scipy_quad(lambda th: 1.0 / (2.0 + math.sin(2 * th)), 0, math.pi / 2)
    expected = 4 * math.pi**2 * 2 * (eps**2 / 4.0) * area
    got = structure_form_l2_norm(1, eps, 1e-4)
    assert got.value == pytest.approx(expected, rel=5e-4)


def test_weighted_defect_is_four_times_integral():
    base = integral_Ik(1, 1, 1e-4)
    defect = weighted_graph_norm_defect(1, 1, 1e-4)
    assert defect.value == pytest.approx(4.0 * base.value, rel=1e-12)


def test_weighted_defect_nonincreasing_n2():
    # at n=2 the exact I~_k decrement from k=2 to k=3 is R_2 - R_3 ~ 4.0e-7
    # (R_k as in test_acceptance.py), so the weighted-defect decrement is
    # 4 (R_2 - R_3) ~ 1.6e-6; both are far below the 1e-4 quadrature
    # resolution, so assert the decrease up to combined error
    w2 = weighted_graph_norm_defect(2, 2, 1e-4)
    w3 = weighted_graph_norm_defect(2, 3, 1e-4)
    assert w3.value > 0
    assert w3.value < w2.value + w2.error_estimate + w3.error_estimate


def test_diagonal_slice_closed_form_drill():
    a, b = DIAGONAL_DRILL_INTERVAL
    value, err = adaptive_1d(diagonal_slice_integrand, a, b, 1e-10)
    assert abs(value - DIAGONAL_DRILL_VALUE) <= 1e-8 * DIAGONAL_DRILL_VALUE


def test_single_worker_determinism():
    a = integral_Ik(1, 2, 1e-4)
    b = integral_Ik(1, 2, 1e-4)
    assert a == b


def test_gauss_kronrod_rule_degrees():
    # K15 integrates x^j exactly on [-1, 1] for j <= 22 and G7 for j <= 13,
    # which the hard-coded QUADPACK constants must reproduce
    gauss_nodes = _XK[1::2]
    for j in range(24):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        if j <= 22:
            assert abs(_XK**j @ _WK - exact) <= 1e-15
        if j <= 13:
            assert abs(gauss_nodes**j @ _WG - exact) <= 1e-15
    assert abs(gauss_nodes**14 @ _WG - 2.0 / 15) > 1e-6


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_rejected(tol):
    with pytest.raises(QuadratureRangeError):
        integral_Ik(1, 1, tol)
    with pytest.raises(QuadratureRangeError):
        structure_form_l2_norm(1, 0.1, tol)


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1, 0.5])
def test_structure_form_l2_norm_closed_form_n1(eps):
    exact = 2.0 * math.pi**3 * eps**2 / (3.0 * math.sqrt(3.0))
    got = structure_form_l2_norm(1, eps, 1e-4)
    assert abs(got.value - exact) <= got.error_estimate + got.truncation_bound
    assert got.error_estimate <= 1e-4 * got.value


def test_structure_form_l2_norm_small_radii():
    results = {
        (n, eps): structure_form_l2_norm(n, eps, 1e-4)
        for n, eps in ((3, 0.01), (3, 0.02), (2, 0.001))
    }
    for res in results.values():
        assert 0 < res.value < math.inf
        assert res.error_estimate <= 1e-4 * res.value
    assert results[3, 0.01].value < results[3, 0.02].value


@pytest.mark.parametrize(
    "call",
    [
        lambda: integral_Ik(2, 1, 1e-8),
        lambda: integral_Ik_bands(2, (1, 2), 1e-8),
        lambda: structure_form_l2_norm(3, 0.01, 1e-8),
    ],
)
def test_budget_exhaustion_carries_finite_partial(monkeypatch, call):
    # on the v-panels 0, 1, 2, 6 these levels miss 1e-8, so the result is
    # raised with its partial, and the message names that partial's panels
    monkeypatch.setattr(levelset, "_V_POINTS", np.array([0.0, 1.0, 2.0, 6.0]))
    with pytest.raises(QuadratureBudgetError) as info:
        call()
    partial = info.value.partial
    message = re.fullmatch(
        r"rel err \S+ misses rel_tol 1e-08 on (\d+) panels \(value \S+\)", str(info.value)
    )
    assert message and int(message[1]) == partial.subregions_used
    assert 0 < partial.value < math.inf
    assert math.isfinite(partial.error_estimate)
    assert partial.error_estimate > 1e-8 * partial.value


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_level_s_solves_the_level_equation(n):
    # 2s + softplus(psi) = ell with psi = (n-1)s + log 2cosh((n+1)d), from
    # the corner region to far beyond d* = (n-1)|ell| / (2(n+1))
    ell = np.array([-0.5, -2.0, -30.0, -300.0])[:, None]
    d = np.linspace(0.0, 200.0, 401)[None, :]
    s, psi = level_s(n, ell, d)
    log_2cosh = np.logaddexp((n + 1) * d, -(n + 1) * d)
    assert np.allclose(psi, (n - 1) * s + log_2cosh, rtol=0.0, atol=1e-12 * (1 + np.abs(psi)).max())
    residual = 2.0 * s + np.logaddexp(0.0, psi) - ell
    assert np.all(np.abs(residual) <= 1e-13 * (np.abs(ell) + (n + 1) * np.abs(s) + 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 10**6, 2**53])
def test_level_s0_solves_the_level_equation_at_d0(n):
    # 2s + softplus((n-1)s + log 2) = ell at the band ends -2e^j and the
    # norm levels 2 log eps; s0 < 0 there, so psi0 <= log 2 and the levels'
    # e0 = e^psi0 <= 2
    ells = [-2.0 * math.exp(j) for j in range(1, 6)] + [2.0 * math.log(eps) for eps in (1e-3, 0.5)]
    for ell in ells:
        s = _level_s0(n, ell)
        sp = float(np.logaddexp(0.0, (n - 1) * s + math.log(2.0)))
        residual = 2.0 * s + sp - ell
        scale = 2.0 * abs(s) + sp + abs(ell) + 1.0
        assert abs(residual) <= 8.0 * np.finfo(float).eps * scale, ell
        assert s < 0.0, ell


def test_psi_integral_closed_forms():
    # n = 1: psi0 = log 2 and int_{log 2}^inf sigma(-psi) coth y dpsi
    # = log(3/2) + C with C = pi/(3 sqrt 3) - log(3/2)
    (value,), _, _ = _psi_integral(1, np.array([math.log(2.0)]), 1.0, 0.0)
    assert value == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), rel=4e-16, abs=0.0)
    # psi0 -> -inf: sigma(-psi) -> 1, delta -> v^2 and C -> int_0^inf
    # (1 - tanh y) dy = log 2; at psi0 = -60 both limits hold to e^{-40}
    (value,), _, _ = _psi_integral(5, np.array([-60.0]), 1.0, 0.0)
    assert value - 60.0 == pytest.approx(math.log(2.0), abs=2.0 * math.ulp(value))


def test_psi_integral_weight_with_sigma_psi():
    # the norm's weight a + b sigma(psi): at psi0 = -60, sigma(psi) < e^{-20}
    # up to v = 6, so the excess is a log 2 and the closed form a 60 + b
    (value,), _, _ = _psi_integral(5, np.array([-60.0]), 2.0, 4.0)
    expected = 2.0 * (60.0 + math.log(2.0)) + 4.0
    assert value == pytest.approx(expected, rel=0.0, abs=4.0 * math.ulp(expected))
    # n = 1, psi0 = log 2, where sigma(psi) runs from 2/3 to 1: with t = e^y,
    # int sigma(-psi) sigma(psi) coth y dpsi = int_1^inf (t^2 + 1) dt /
    # (t^2 + t + 1)^2 = 4 pi / (9 sqrt 3) - 1/3, so (a, b) = (2, 4) gives
    # 2 pi / (3 sqrt 3) + 4 (4 pi / (9 sqrt 3) - 1/3) = 22 pi / (9 sqrt 3) - 4/3
    (value,), _, _ = _psi_integral(1, np.array([math.log(2.0)]), 2.0, 4.0)
    expected = 22.0 * math.pi / (9.0 * math.sqrt(3.0)) - 4.0 / 3.0
    assert value == pytest.approx(expected, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**6])
@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_Ik_large_n_matches_the_limit(n, tol):
    # I~_k = pi^2 (n-1)/(n+1) + R_k with R_k <= e^{(n-1) l}, l <= -2e on
    # every band, so from n = 10 on R_k is below an ulp of the limit
    limit = math.pi**2 * (n - 1) / (n + 1)
    for row in integral_Ik_bands(n, (1, 2, 3, 4), tol):
        assert abs(row.value - limit) <= row.error_estimate + row.truncation_bound
        assert row.error_estimate <= tol * row.value


def test_one_panel_per_band_meets_the_tolerance_floor():
    # each band is one K15 panel in u = log(-s0), never refined: at the
    # floor tolerance 1e-8 it must still meet its tolerance, from n = 1 to
    # 2^53
    ns = list(range(1, 21)) + sorted({int(n) for n in np.geomspace(21, 2**53, 20)})
    for n in ns:
        for row in integral_Ik_bands(n, (1, 2, 3, 4), 1e-8):
            assert row.error_estimate <= 1e-8 * row.value, n


NORM_RADII = (
    1e-3, 0.01, 0.02618803324854386, 0.05, 0.1, 0.14625625729010416, 0.2,
    0.44296749804716234, 0.5,
)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 100, 1000, 10**6, 2**53])
def test_structure_form_l2_norm_matches_fixed_panel_reference(n):
    # (2, 0.44296749804716234) at tol 1e-4 once fell below the reference by
    # more than its two-panel error estimate; (2, 0.02618803324854386) and
    # (3, 0.14625625729010416) missed by 7.4x and 1.5x while the v-panel
    # [1, 6] was split once; at n = 2^53 and eps <= 2.4e-3 a reference
    # solved in d missed by 3e-14 relative
    for eps in NORM_RADII:
        reference, uncertainty = structure_form_reference(n, eps)
        assert uncertainty <= 1e-11 * reference
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            got = structure_form_l2_norm(n, eps, tol)
            slack = got.error_estimate + got.truncation_bound + uncertainty
            assert abs(got.value - reference) <= slack, (eps, tol)
            assert got.error_estimate <= tol * got.value


# n = 3 radius inside one of the two windows where, on the v-panels 0, 1, 2,
# 6, the value was off the reference by 33.9 times its error estimate
WINDOW_RADIUS = 0.030965557587097632


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_structure_form_l2_norm_window_radius_matches_reference(tol):
    reference, uncertainty = structure_form_reference(3, WINDOW_RADIUS)
    got = structure_form_l2_norm(3, WINDOW_RADIUS, tol)
    slack = got.error_estimate + got.truncation_bound + uncertainty
    assert abs(got.value - reference) <= slack


@pytest.mark.parametrize("n", [2, 3])
def test_structure_form_l2_norm_radius_sweep(n):
    # log-spaced radii find what a few chosen ones miss
    for eps in np.geomspace(1e-3, 0.5, 60):
        reference, uncertainty = structure_form_reference(n, float(eps))
        got = structure_form_l2_norm(n, float(eps), 1e-4)
        slack = got.error_estimate + got.truncation_bound + uncertainty
        assert abs(got.value - reference) <= slack, eps


@pytest.mark.parametrize("n", [1, 2, 3, 10**6])
def test_levels_converge_in_one_kronrod_round(monkeypatch, n):
    # no v-panel of a level splits, at any tolerance: a table is one round
    # of the levels at the nodes of all its bands, and the tolerance picks
    # no panels, so every value, error and panel count is that of 1e-8
    calls = []
    kronrod = levelset._kronrod
    monkeypatch.setattr(levelset, "_kronrod", lambda *args: calls.append(1) or kronrod(*args))
    radii = (1e-3, 0.14625625729010416, 0.5)
    floor = (
        integral_Ik_bands(n, (1, 2, 3, 4), 1e-8),
        [structure_form_l2_norm(n, eps, 1e-8) for eps in radii],
    )
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        calls.clear()
        table = integral_Ik_bands(n, (1, 2, 3, 4), tol)
        assert len(calls) == 1, tol
        norms = []
        for eps in radii:
            calls.clear()
            norms.append(structure_form_l2_norm(n, eps, tol))
            assert len(calls) == 1, (tol, eps)
        assert (table, norms) == floor, tol


@pytest.mark.parametrize("tol", [1e-4, 1e-5, 9.9e-6, 1e-6, 9.9e-7, 1e-8])
def test_every_table_and_norm_meets_its_tolerance(tol):
    # around 1e-5 and 1e-6, where the v-panels once switched, and down to
    # the floor, with nothing raised
    for n in (1, 2, 3, 10, 1000, 2**53):
        for row in integral_Ik_bands(n, (1, 2, 3, 4), tol):
            assert row.error_estimate <= tol * row.value, n
        for eps in (1e-100, 1e-12, 1e-3, 0.030965557587097632, 0.14625625729010416, 0.5):
            got = structure_form_l2_norm(n, eps, tol)
            assert got.error_estimate <= tol * got.value, (n, eps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_equation_is_solved_outside_kernel_rounds(monkeypatch, n):
    # the root s0 is solved at the ends of the bands and at the one level
    # of a norm, never at a node: a table makes as many calls at 1e-8 as
    # at 1e-4
    calls = []
    solve = levelset._level_s0
    monkeypatch.setattr(levelset, "_level_s0", lambda *args: calls.append(1) or solve(*args))
    counts = []
    for tol in (1e-4, 1e-8):
        calls.clear()
        integral_Ik_bands(n, (1, 2, 3, 4), tol)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * 4
    for tol in (1e-4, 1e-8):
        calls.clear()
        structure_form_l2_norm(n, 1e-3, tol)
        assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_reported_panels_are_the_panels_evaluated(monkeypatch, n, tol):
    # every panel _kronrod evaluates is counted once in the subregions_used
    # of the integral it belongs to, and each band adds its own one panel
    evaluated = []
    kronrod = levelset._kronrod

    def counting(f, lo, hi, rows):
        evaluated.append(len(lo))
        return kronrod(f, lo, hi, rows)

    monkeypatch.setattr(levelset, "_kronrod", counting)
    table = integral_Ik_bands(n, (1, 2, 3, 4), tol)
    assert sum(row.subregions_used for row in table) == sum(evaluated) + len(table)
    evaluated.clear()
    assert structure_form_l2_norm(n, 1e-3, tol).subregions_used == sum(evaluated)
