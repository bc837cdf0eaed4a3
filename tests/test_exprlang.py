"""Expression language: parsing, evaluation, round trips, range checks."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import coeffs, exprlang
from jumplab.config import FirstAxisCone
from jumplab.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from jumplab.kernels import (
    BigJumpPowerLaw,
    ConeRestriction,
    KernelSpec,
    StableLikeSmall,
)


def ev(src, x=(0.0,)):
    return exprlang.evaluate(exprlang.parse(src), x)


class TestEvaluation:
    # arithmetic and precedence
    def test_arithmetic(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("2^3^2") == 512.0          # right-associative
        assert ev("-2^2") == -4.0            # unary binds looser than ^
        assert ev("7/2") == 3.5

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_coordinates_and_norm(self):
        assert ev("x[1]", (3.0, -4.0)) == 3.0
        assert ev("x[2]", (3.0, -4.0)) == -4.0
        assert ev("|x|", (3.0, -4.0)) == 5.0
        assert ev("r", (3.0, -4.0)) == 5.0   # alias for |x|

    def test_builtins(self):
        assert ev("exp(0)") == 1.0
        assert ev("log(e)") == pytest.approx(1.0)
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(-2)") == 2.0
        assert ev("min(3, 2)") == 2.0
        assert ev("max(3, 2)") == 3.0
        assert ev("clamp(5, 0, 1)") == 1.0
        assert ev("clamp(-5, 0, 1)") == 0.0
        assert ev("clamp(0.25, 0, 1)") == 0.25

    # closed form: the bump coefficient used throughout the docs
    def test_inverse_quadratic_bump(self):
        expr = exprlang.parse("1 + 0.5/(1 + |x|^2)")
        assert exprlang.evaluate(expr, (0.0,)) == 1.5
        assert exprlang.evaluate(expr, (1.0,)) == 1.25
        assert exprlang.evaluate(expr, (3.0,)) == 1.05

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            ev("log(0)")
        with pytest.raises(DomainError):
            ev("log(-1)")
        with pytest.raises(DomainError):
            ev("1/0")
        with pytest.raises(DomainError):
            ev("sqrt(-1)")
        with pytest.raises(DomainError):
            ev("(-1)^0.5")

    def test_coordinate_out_of_range(self):
        with pytest.raises(IndexError):
            ev("x[3]", (1.0, 2.0))


class TestErrors:
    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            exprlang.parse("1 + * 2")
        assert err.value.offset == 4
        assert err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            exprlang.parse("2 * frobnicate(1)")
        assert err.value.name == "frobnicate"
        assert err.value.offset == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            exprlang.parse("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            exprlang.parse("1 + 2 )")


class TestIntrospection:
    def test_max_coord(self):
        # zero-based internally; x[2] touches index 1
        assert exprlang.parse("1 + x[2]*x[1]").max_coord() == 1
        assert exprlang.parse("3.5").max_coord() == -1
        assert exprlang.parse("|x|").max_coord() == -1

    def test_is_constant(self):
        assert exprlang.parse("2*pi + 1").is_constant()
        assert not exprlang.parse("2 + |x|").is_constant()
        assert not exprlang.parse("x[1]").is_constant()


# strategy for random expression trees rendered back to source
_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.9).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["x[1]", "|x|", "pi"]),
)


def _combine(children):
    a, b = children
    op = np.random.default_rng(abs(hash((a, b))) % 2**32).choice(
        ["+", "-", "*"]
    )
    return f"({a} {op} {b})"


_expr_src = st.recursive(
    _leaf,
    lambda inner: st.tuples(inner, inner).map(_combine),
    max_leaves=8,
)


class TestRoundTrip:
    @given(src=_expr_src, x=st.floats(min_value=-5, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_pretty_reparse_is_identity(self, src, x):
        expr = exprlang.parse(src)
        printed = exprlang.pretty(expr)
        again = exprlang.parse(printed)
        v1 = exprlang.evaluate(expr, (x,))
        v2 = exprlang.evaluate(again, (x,))
        assert v1 == v2

    @given(x=st.floats(min_value=-10, max_value=10),
           y=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_norm_matches_numpy(self, x, y):
        expr = exprlang.parse("|x|")
        assert exprlang.evaluate(expr, (x, y)) == pytest.approx(
            float(np.hypot(x, y))
        )


class TestCheckRange:
    def test_bounded_coefficient_passes(self):
        expr = exprlang.parse("1 + 0.5/(1 + |x|^2)")
        grid = [(float(v),) for v in np.linspace(-10, 10, 201)]
        rep = exprlang.check_range(expr, grid, 1.0, 1.5)
        assert rep.passed
        assert rep.observed_max == 1.5
        assert rep.argmax == (0.0,)
        assert rep.observed_min > 1.0

    def test_violation_reports_witness(self):
        expr = exprlang.parse("|x|")
        grid = [(-2.0,), (0.0,), (3.0,)]
        rep = exprlang.check_range(expr, grid, 0.0, 2.5)
        assert not rep.passed
        assert rep.observed_max == 3.0
        assert rep.argmax == (3.0,)


def _norm(x):
    return math.sqrt(sum(c * c for c in x))


# every node type, all nine functions, x[i], |x| and r, each against the
# same float operations written out by hand
_CORPUS = [
    ("1 + 2*x[1] - x[2]/3", lambda x: 1.0 + 2.0 * x[0] - x[1] / 3.0),
    ("-x[1]^2 + 2^x[2]", lambda x: -x[0] ** 2.0 + 2.0 ** x[1]),
    ("|x| * r - x[1]", lambda x: _norm(x) * _norm(x) - x[0]),
    ("1 + 0.5/(1 + |x|^2)", lambda x: 1.0 + 0.5 / (1.0 + _norm(x) ** 2.0)),
    ("exp(-x[1]) + log(1 + |x|)",
     lambda x: math.exp(-x[0]) + math.log(1.0 + _norm(x))),
    ("sin(x[1]) * cos(x[2])", lambda x: math.sin(x[0]) * math.cos(x[1])),
    ("sqrt(1 + x[1]^2) + abs(x[2])",
     lambda x: math.sqrt(1.0 + x[0] ** 2.0) + abs(x[1])),
    ("min(x[1], x[2]) - max(x[1], 0.5)",
     lambda x: min(x[0], x[1]) - max(x[0], 0.5)),
    ("clamp(x[1] + x[2], -0.5, 0.5)",
     lambda x: min(max(x[0] + x[1], -0.5), 0.5)),
    ("x[1] * (2*pi - e/3) + (1 + 2)^0.5",
     lambda x: x[0] * (2.0 * math.pi - math.e / 3.0) + (1.0 + 2.0) ** 0.5),
    ("0.843 + 0.179*x[1]^2/(1 + |x|^2)",
     lambda x: 0.843 + 0.179 * x[0] ** 2.0 / (1.0 + _norm(x) ** 2.0)),
]
_STATES = [(0.0, 0.0), (0.3, -1.7), (2.0, 0.25), (-0.9, 1e-3),
           (-2.0, -2.0), (1.0 / 3.0, math.pi)]


class TestCompiler:
    @pytest.mark.parametrize("src, hand", _CORPUS,
                             ids=[src for src, _ in _CORPUS])
    def test_equals_hand_written(self, src, hand):
        expr = exprlang.parse(src)
        for x in _STATES:
            want = hand(x)
            assert exprlang.evaluate(expr, x) == want
            assert exprlang.evaluate(expr, np.array(x)) == want
            assert expr(x) == want

    @pytest.mark.parametrize("src, x, error, message", [
        ("1/0", (0.0,), DomainError, "division by zero in (1.0 / 0.0)"),
        ("1/(x[1] - 1)", (1.0,), DomainError,
         "division by zero in (1.0 / (x[1] - 1.0))"),
        ("log(x[1])", (0.0,), DomainError, "log of non-positive value 0.0"),
        ("sqrt(x[1])", (-4.0,), DomainError, "sqrt of negative value -4.0"),
        ("x[1]^0.5", (-1.0,), DomainError, "non-real power -1.0^0.5"),
        ("0^(-1)", (0.0,), DomainError, "invalid power 0.0^-1.0"),
        ("10^400", (0.0,), DomainError, "invalid power 10.0^400.0"),
        ("exp(1000)", (0.0,), OverflowError, "math range error"),
        ("x[3] + 1/0", (1.0, 2.0), IndexError,
         "coordinate x[2] out of range for d=2"),
    ])
    def test_errors_raise_when_evaluated(self, src, x, error, message):
        # parsing succeeds; the error is raised when evaluated
        expr = exprlang.parse(src)
        with pytest.raises(error) as err:
            exprlang.evaluate(expr, x)
        assert str(err.value) == message

    def test_pickle_round_trip(self):
        expr = exprlang.parse(_CORPUS[9][0])
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr
        fn = coeffs.from_source(_CORPUS[3][0], 1.0, 1.5)
        fn_copy = pickle.loads(pickle.dumps(fn))
        assert fn_copy == fn
        for x in _STATES:
            assert copy(x) == expr(x)
            assert fn_copy(x) == fn(x)
        kernel = KernelSpec(2, (
            StableLikeSmall(fn, coeffs.from_source("1 + 0.5/(1 + |x|^2)",
                                                   1.0, 1.5)),
            ConeRestriction(
                BigJumpPowerLaw(coeffs.from_source(_CORPUS[10][0],
                                                   0.843, 1.022),
                                coeffs.constant(3.0)),
                FirstAxisCone(), symmetric=True),
        ))
        kernel_copy = pickle.loads(pickle.dumps(kernel))
        for x in [(0.0, 0.0), (2.0, -2.0)]:
            assert kernel_copy.total_mass_tail(x, 0.1) == \
                kernel.total_mass_tail(x, 0.1)
