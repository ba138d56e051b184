import json
import math
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, reference_dumps
from polyflat import jsonio
from polyflat.errors import InvalidInputError
from polyflat.polynomial import Polynomial


def test_polynomial_eval_grad_hess():
    # f = 2 x^2 y - 3 y + 1
    f = Polynomial.from_monomials(2, [((2, 1), 2.0), ((0, 1), -3.0), ((0, 0), 1.0)])
    x = np.array([1.5, -0.5])
    assert f(x) == pytest.approx(2 * 1.5**2 * -0.5 + 3 * 0.5 + 1)
    np.testing.assert_allclose(f.gradient(x), fd_gradient(f, x), atol=1e-6)
    np.testing.assert_allclose(
        f.hessian(x), [[4 * x[1], 4 * x[0]], [4 * x[0], 0.0]], atol=1e-12
    )


def test_polynomial_compose_affine():
    f = Polynomial.from_monomials(2, [((1, 1), 1.0)])  # x * y
    g = f.compose_affine([1.0, 2.0], [[1.0], [-1.0]])  # (1 + u)(2 - u)
    for u in (-0.5, 0.0, 0.7):
        assert g(np.array([u])) == pytest.approx((1 + u) * (2 - u), abs=1e-12)


def test_polynomial_batches_match_rows():
    f = Polynomial.from_monomials(2, [((2, 1), 2.0), ((0, 1), -3.0), ((0, 0), 1.0), ((3, 0), 0.5)])
    pts = np.array([[1.5, -0.5], [0.2, 0.7], [-1.0, 2.0]])
    np.testing.assert_array_equal(f(pts), [f(p) for p in pts])
    np.testing.assert_array_equal(f.gradient(pts), [f.gradient(p) for p in pts])
    np.testing.assert_array_equal(f.hessian(pts), [f.hessian(p) for p in pts])
    assert isinstance(f(pts[0]), float)
    zero = Polynomial.zero(2)
    assert zero(pts[0]) == 0.0 and zero(pts).shape == (3,)
    assert zero.gradient(pts).shape == (3, 2) and zero.hessian(pts).shape == (3, 2, 2)


@pytest.mark.parametrize("exponents", [(1.5, 0), (0, "2"), (math.nan, 1), (True, 0), (1, False)])
def test_polynomial_rejects_non_integral_exponents(exponents):
    with pytest.raises(InvalidInputError):
        Polynomial.from_monomials(2, [(exponents, 1.0)])


@pytest.mark.parametrize("coeff", [True, False])
def test_polynomial_rejects_a_boolean_coefficient(coeff):
    with pytest.raises(InvalidInputError, match="is not a number"):
        Polynomial.from_monomials(2, [((1, 0), coeff)])


def test_polynomial_partial():
    f = Polynomial.from_monomials(2, [((2, 1), 2.0), ((0, 1), 3.0), ((0, 0), 5.0)])
    assert f.partial(0).terms == (((1, 1), 4.0),)
    assert f.partial(1).terms == (((0, 0), 3.0), ((2, 0), 2.0))
    pts = np.array([[0.3, -1.2], [2.0, 0.5]])
    for i in range(2):
        np.testing.assert_allclose(f.partial(i)(pts), f.gradient(pts)[:, i], rtol=0, atol=1e-14)
    assert f.partial(0).partial(0).partial(0).terms == ()


def test_polynomial_accepts_integral_float_exponents():
    f = Polynomial.from_monomials(2, [((2.0, 0), 1.0)])
    assert f.terms == (((2, 0), 1.0),)


def test_a_guillemin_potential_of_the_polytope_needs_one():
    with pytest.raises(InvalidInputError, match='"guillemin_of": "polytope" needs a polytope'):
        jsonio.parse_potential({"guillemin_of": "polytope"})


def test_potential_schema_rejects_non_integral_exponents():
    data = {"dim": 2, "correction": {"monomials": [{"exponents": [1.5, 0], "coeff": 1.0}]}}
    with pytest.raises(InvalidInputError):
        jsonio.parse_potential(data)


def test_polynomial_zero_and_cancellation():
    f = Polynomial.from_monomials(1, [((2,), 1.0), ((2,), -1.0)])
    assert f.terms == ()


def test_fraction_parsing():
    from fractions import Fraction

    from polyflat.polytope import as_fraction

    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("-5") == Fraction(-5)
    with pytest.raises(InvalidInputError):
        as_fraction(0.3)


GOLDEN_PAYLOAD = {
    "a": 1 / 3,
    "b": [math.inf, -math.inf],
    "n": np.float64(0.1),
    "x": np.bool_(True),
    "k": np.int64(3),
    "nan": math.nan,
    "ints": (0, -7, 2**70),
    "floats": [1.0, -0.0, 0.1 + 0.2, 1e-05, 1e12, 9999999999995.0, 1e16, 2.5e-300, 5e-324],
    "float32": np.float32(0.1),
    "flags": [True, False, None],
    "fractions": [Fraction(3, 4), Fraction(-2)],
    "arrays": [np.array(2.5), np.array([True, False]), np.array([[1, 2], [3, 4]]), np.array([])],
    "text": "\u00e9 \"q\"\t\n\x01",
    "empty": {"dict": {}, "list": []},
}

GOLDEN_TEXT = r"""{
  "a": 0.333333333333,
  "arrays": [
    2.5,
    [
      true,
      false
    ],
    [
      [
        1,
        2
      ],
      [
        3,
        4
      ]
    ],
    []
  ],
  "b": [
    "inf",
    "-inf"
  ],
  "empty": {
    "dict": {},
    "list": []
  },
  "flags": [
    true,
    false,
    null
  ],
  "float32": 0.10000000149,
  "floats": [
    1.0,
    -0.0,
    0.3,
    1e-05,
    1000000000000.0,
    10000000000000.0,
    1e+16,
    2.5e-300,
    5e-324
  ],
  "fractions": [
    "3/4",
    "-2"
  ],
  "ints": [
    0,
    -7,
    1180591620717411303424
  ],
  "k": 3,
  "n": 0.1,
  "nan": "nan",
  "text": "\u00e9 \"q\"\t\n\u0001",
  "x": true
}
"""


def test_dumps_golden_bytes():
    assert jsonio.dumps(GOLDEN_PAYLOAD) == GOLDEN_TEXT
    out = json.loads(jsonio.dumps({"a": 1 / 3, "b": [math.inf, -math.inf], "n": np.float64(0.1)}))
    assert out["a"] == float(f"{1/3:.12g}")
    assert out["b"] == ["inf", "-inf"]
    assert isinstance(out["n"], float)
    text = jsonio.dumps({"x": np.bool_(True), "k": np.int64(3)})
    assert json.loads(text) == {"x": True, "k": 3}


# every value kind the writer takes, nested in lists, tuples and string-keyed dicts
JSON_LEAVES = st.one_of(
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.fractions(),
    st.text(),
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    ),
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_PAYLOADS)
@example(5e-324)
@example(-0.0)
@example(1e12)
@example(123456789012.0)
@example(1e15)
@example(9999999999995.0)
@example(1e16)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example({})
@example([])
@example(np.array([]))
def test_dumps_matches_the_reference_writer(obj):
    assert jsonio.dumps(obj) == reference_dumps(obj)


def test_polytope_roundtrip_through_json(triangle):
    data = jsonio.polytope_to_dict(triangle)
    assert jsonio.parse_polytope(data) == triangle


def test_potential_schema(triangle):
    phi = jsonio.parse_potential(
        {
            "scale": 1.0,
            "log_terms": [{"normal": [1.0, 0.0], "offset": 0.0, "weight": 2.0}],
            "correction": {"monomials": [{"exponents": [2, 0], "coeff": 0.5}]},
        }
    )
    assert phi.dim == 2 and phi.log_terms[0].weight == 2.0
    assert phi.value((0.5, 0.1)) == pytest.approx(
        1.0 * 2.0 * 0.5 * math.log(0.5) + 0.5 * 0.25, abs=1e-14
    )
    round_trip = jsonio.parse_potential(phi.as_dict())
    assert round_trip == phi


@pytest.mark.parametrize("dim", [2.7, 1.5, True, False, "2.5"])
def test_polytope_schema_rejects_non_integral_dim(triangle, dim):
    data = jsonio.polytope_to_dict(triangle)
    data["dim"] = dim
    with pytest.raises(InvalidInputError):
        jsonio.parse_polytope(data)


@pytest.mark.parametrize("bounded", ["false", "no", "true", 0, 1, None, [True]])
def test_polytope_schema_rejects_non_boolean_bounded(triangle, bounded):
    data = jsonio.polytope_to_dict(triangle)
    data["bounded"] = bounded
    with pytest.raises(InvalidInputError):
        jsonio.parse_polytope(data)


def test_polytope_schema_keeps_integral_dim_and_boolean_bounded(triangle, half_line):
    data = jsonio.polytope_to_dict(triangle)
    data["dim"] = 2.0
    assert jsonio.parse_polytope(data) == triangle
    del data["bounded"]
    assert jsonio.parse_polytope(data).bounded is True
    # the key is optional and checked: it must agree with the half-spaces
    data["bounded"] = False
    with pytest.raises(InvalidInputError, match="bounded"):
        jsonio.parse_polytope(data)
    ray = jsonio.polytope_to_dict(half_line)
    assert ray["bounded"] is False
    assert jsonio.parse_polytope(ray) == half_line


@pytest.mark.parametrize("dim", [2.5, True, "1.5"])
def test_potential_schema_rejects_non_integral_dim(dim):
    with pytest.raises(InvalidInputError):
        jsonio.parse_potential({"dim": dim, "scale": 1.0})


def test_potential_schema_keeps_integral_dim():
    assert jsonio.parse_potential({"dim": 2.0, "scale": 1.0}).dim == 2
