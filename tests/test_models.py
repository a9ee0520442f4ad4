import math

import numpy as np
import pytest

from duval_kind.dual_graph import ParameterError
from duval_kind.models import (
    CoveringMap,
    covering_image,
    duval_equation,
    solve_on_hypersurface,
)
from duval_kind.poly import differentiate, evaluate, gradient_vanishes, parse_polynomial
from oracles import (
    ambient_norm_squared_pullback,
    log_ambient_norm_squared_pullback,
    pullback_residue_density,
)

ALL_GERMS = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_a2_equation_and_denominator():
    germ = duval_equation("A", 2)
    assert germ.equation == parse_polynomial("z^3 - x*y")
    assert germ.residue_denominator == parse_polynomial("3z^2")


def test_e8_equation_and_denominator():
    germ = duval_equation("E", 8)
    assert germ.equation == parse_polynomial("x^2 + y^3 + z^5")
    assert germ.residue_denominator == parse_polynomial("5z^4")


def test_d4_equation_and_denominator():
    germ = duval_equation("D", 4)
    assert germ.equation == parse_polynomial("x^2 + y^2*z + z^3")
    assert germ.residue_denominator == parse_polynomial("y^2 + 3z^2")


def test_out_of_range_rejected():
    with pytest.raises(ParameterError):
        duval_equation("E", 9)
    with pytest.raises(ParameterError):
        duval_equation("D", 3)


@pytest.mark.parametrize("type_,n", ALL_GERMS)
def test_denominator_is_z_derivative(type_, n):
    germ = duval_equation(type_, n)
    assert germ.residue_denominator == differentiate(germ.equation, "z")


@pytest.mark.parametrize("type_,n", ALL_GERMS)
def test_singular_point_at_origin(type_, n):
    germ = duval_equation(type_, n)
    assert evaluate(germ.equation, (0, 0, 0)) == 0
    assert gradient_vanishes(germ.equation, (0, 0, 0), 0.0)


@pytest.mark.parametrize("type_,n", ALL_GERMS)
def test_gradient_nonzero_away_from_origin(type_, n):
    germ = duval_equation(type_, n)
    rng = np.random.default_rng(hash((type_, n)) % 2**32)
    points = []
    if type_ == "A":
        cov = CoveringMap(n)
        while len(points) < 20:
            s = complex(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            t = complex(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            points.append(covering_image(cov, s, t))
    else:
        while len(points) < 20:
            y = complex(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            z = complex(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            for x in solve_on_hypersurface(germ, y, z):
                points.append((x, y, z))
    for pt in points[:20]:
        assert abs(evaluate(germ.equation, pt)) < 1e-9
        assert not gradient_vanishes(germ.equation, pt, 1e-9)


def test_covering_image_examples():
    assert covering_image(CoveringMap(1), 1, 1) == (1, 1, 1)
    assert covering_image(CoveringMap(2), 2, 0) == (8, 0, 0)


def test_covering_image_residual_identity():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        germ = duval_equation("A", n)
        cov = CoveringMap(n)
        for _ in range(1000 // 3):
            s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(evaluate(germ.equation, covering_image(cov, s, t))) <= 1e-12


def test_ambient_norm_examples():
    assert ambient_norm_squared_pullback(1, 1.0, 1.0) == 3.0
    assert ambient_norm_squared_pullback(1, 1.0, 0.0) == 1.0


def test_log_space_deep_underflow():
    # rho1 = rho2 = e^{-100}: direct value 3 e^{-400} underflows, log value
    # is -400 + log 3
    got = log_ambient_norm_squared_pullback(1, -100.0, -100.0)
    assert abs(got - (-400.0 + math.log(3.0))) <= 1e-12


def test_log_space_agrees_with_direct():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        u1, u2 = rng.uniform(-300, 0, 2) / (2 * n + 2)
        direct = ambient_norm_squared_pullback(n, math.exp(u1), math.exp(u2))
        assert direct > 0
        got = log_ambient_norm_squared_pullback(n, u1, u2)
        assert abs(got - math.log(direct)) <= 1e-12 * max(1.0, abs(got))


def test_pullback_residue_density():
    assert pullback_residue_density(1) == 4.0
    assert pullback_residue_density(2) == 9.0
    assert pullback_residue_density(0) == 1.0
