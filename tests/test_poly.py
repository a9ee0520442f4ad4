import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duval_kind.poly import (
    Polynomial3,
    PolynomialParseError,
    differentiate,
    evaluate,
    gradient_vanishes,
    parse_polynomial,
)


def test_differentiate_an_residue_denominator():
    # z^{n+1} - xy with n = 2 differentiates to 3 z^2 in z
    f = parse_polynomial("z^3 - x*y")
    assert differentiate(f, "z") == parse_polynomial("3z^2")


def test_differentiate_constant_is_zero():
    assert differentiate(Polynomial3.constant(5), "x").is_zero()


def test_differentiate_e8_equation():
    f = parse_polynomial("x^2 + y^3 + z^5")
    assert differentiate(f, "z") == parse_polynomial("5z^4")


def test_evaluate_on_hypersurface_points():
    f = parse_polynomial("z^3 - x*y")
    assert evaluate(f, (1, 1, 1)) == 0
    assert evaluate(f, (0, 0, 0)) == 0
    assert evaluate(parse_polynomial("x^2 + y^3 + z^5"), (1, 0, 0)) == 1


def test_gradient_vanishes_examples():
    assert gradient_vanishes(parse_polynomial("z^2 - x*y"), (0, 0, 0), 0.0)
    assert not gradient_vanishes(parse_polynomial("z - x"), (0, 0, 0), 0.0)
    assert gradient_vanishes(parse_polynomial("x^2 + y^3 + z^5"), (0, 0, 0), 0.0)


def test_gradient_vanishes_rejects_negative_tol():
    with pytest.raises(ValueError):
        gradient_vanishes(Polynomial3.constant(1), (0, 0, 0), -1.0)


def test_no_zero_terms_stored():
    p = parse_polynomial("x + y") - parse_polynomial("x")
    assert p == parse_polynomial("y")
    assert (0, 0, 0) not in p.terms


# -- parser -------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("z^3 - x*y", {(0, 0, 3): 1, (1, 1, 0): -1}),
        ("  2 x^2 y - 5 ", {(2, 1, 0): 2, (0, 0, 0): -5}),
        ("-x", {(1, 0, 0): -1}),
        ("x*x", {(2, 0, 0): 1}),
        ("3", {(0, 0, 0): 3}),
        ("x^2*y^3*z", {(2, 3, 1): 1}),
    ],
)
def test_parse_valid(text, expected):
    assert dict(parse_polynomial(text).terms) == expected


@pytest.mark.parametrize("text", ["x^^2", "", "x +", "2**x", "x 2", "w"])
def test_parse_invalid(text):
    with pytest.raises(PolynomialParseError):
        parse_polynomial(text)


def test_parse_error_position():
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial("x^^2")
    assert info.value.position == 2


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^2 + y^99999999", 8),  # the exponent's first digit
        ("x^40000*x^40000", 10),  # the sum of a variable's exponents counts
        ("x^65536*x", 8),
        ("x^" + "9" * 5000, 2),  # beyond the interpreter's digit limit
        ("9" * 5000, 0),
        ("x^\u00b2", 2),  # superscript two passes str.isdigit, not int()
    ],
    ids=[
        "exponent",
        "exponent-sum",
        "variable-after-max",
        "long-exponent",
        "long-coefficient",
        "superscript-digit",
    ],
)
def test_oversized_numbers_are_positioned_parse_errors(text, position):
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial(text)
    assert info.value.position == position


def test_largest_exponent_parses():
    assert dict(parse_polynomial("x^65535*x").terms) == {(65536, 0, 0): 1}


def test_str_roundtrip():
    for text in ["z^3 - x*y", "x^2 + y^2*z + z^3", "-2*x + 7"]:
        p = parse_polynomial(text)
        assert parse_polynomial(str(p)) == p


# -- property tests -----------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
    ),
    st.integers(-20, 20),
    max_size=6,
).map(Polynomial3)

monomials = st.tuples(
    st.integers(-5, 5).filter(lambda c: c != 0),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
).map(lambda t: Polynomial3.monomial(*t))


@given(small_polys, small_polys, st.sampled_from(["x", "y", "z"]))
def test_differentiate_linear(p, q, var):
    assert differentiate(p + q, var) == differentiate(p, var) + differentiate(q, var)


@given(monomials, small_polys, st.sampled_from(["x", "y", "z"]))
def test_leibniz_on_monomials(m, p, var):
    lhs = differentiate(m * p, var)
    rhs = differentiate(m, var) * p + m * differentiate(p, var)
    assert lhs == rhs


@given(
    small_polys,
    st.tuples(
        st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)
    ),
)
@settings(max_examples=50)
def test_derivative_matches_central_difference(p, moduli):
    point = tuple(complex(m) for m in moduli)
    analytic = evaluate(differentiate(p, "x"), point)
    h = 1e-6
    x, y, z = point
    fd = (evaluate(p, (x + h, y, z)) - evaluate(p, (x - h, y, z))) / (2 * h)
    scale = max(abs(analytic), 1.0)
    assert abs(fd - analytic) <= 1e-6 * scale * max(
        1.0, sum(abs(c) for c in p.terms.values())
    )
