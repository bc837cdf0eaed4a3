"""Adaptive radial quadrature and sphere rules against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab.errors import DivergenceDetected, DivergentIntegral
from jumplab.quadrature import integrate_radial, sphere_nodes


class TestFiniteIntervals:
    # closed form: antiderivative oracles
    def test_polynomial(self):
        res = integrate_radial(lambda r: r**3, 0.0, 2.0)
        assert res.value == pytest.approx(4.0, rel=1e-8)
        assert abs(res.value - 4.0) <= res.error_bound
        assert res.error_bound <= 1e-8 * abs(res.value)

    def test_exponential(self):
        exact = 1.0 - math.exp(-5.0)
        res = integrate_radial(lambda r: math.exp(-r), 0.0, 5.0)
        assert res.value == pytest.approx(exact, rel=1e-8)
        assert abs(res.value - exact) <= res.error_bound

    def test_oscillatory(self):
        res = integrate_radial(lambda r: math.sin(r), 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-8)

    def test_integrable_singularity_at_origin(self):
        # int_0^1 r^{-1/2} dr = 2
        res = integrate_radial(lambda r: r**-0.5, 0.0, 1.0,
                               singular_exponent=-0.5)
        assert res.value == pytest.approx(2.0, rel=1e-7)

    def test_strong_but_integrable_singularity(self):
        # int_0^1 r^{-0.9} dr = 10
        res = integrate_radial(lambda r: r**-0.9, 0.0, 1.0,
                               singular_exponent=-0.9)
        assert res.value == pytest.approx(10.0, rel=1e-5)


class TestInfiniteTail:
    def test_power_tail(self):
        # int_1^inf r^{-2} dr = 1
        res = integrate_radial(lambda r: r**-2.0, 1.0, math.inf)
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_exponential_tail(self):
        res = integrate_radial(lambda r: math.exp(-r), 0.0, math.inf)
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_stable_like_radial_moment(self):
        # int_0^1 r^2 * r^{-1-alpha} dr = 1/(2-alpha), alpha = 1.5
        res = integrate_radial(lambda r: r**2 * r**-2.5, 0.0, 1.0,
                               singular_exponent=-0.5)
        assert res.value == pytest.approx(2.0, rel=1e-7)


class TestDivergence:
    def test_nonintegrable_origin_rejected_by_hint(self):
        with pytest.raises(DivergentIntegral):
            integrate_radial(lambda r: 1.0 / r, 0.0, 1.0,
                             singular_exponent=-1.0)

    def test_nonintegrable_origin_detected(self):
        with pytest.raises(DivergentIntegral):
            integrate_radial(lambda r: r**-1.3, 0.0, 1.0)

    def test_divergent_tail_detected(self):
        with pytest.raises(DivergenceDetected):
            integrate_radial(lambda r: 1.0 / r, 1.0, math.inf)

    def test_borderline_divergent_tail(self):
        with pytest.raises(DivergentIntegral):
            integrate_radial(lambda r: r**-0.5, 1.0, math.inf)


class TestProperties:
    @given(a=st.floats(min_value=0.1, max_value=2.0),
           b=st.floats(min_value=2.5, max_value=9.0),
           c0=st.floats(min_value=-3, max_value=3),
           c1=st.floats(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_linearity_on_polynomials(self, a, b, c0, c1):
        f = lambda r: c0 + c1 * r
        exact = c0 * (b - a) + 0.5 * c1 * (b * b - a * a)
        res = integrate_radial(f, a, b)
        assert res.value == pytest.approx(exact, rel=1e-10, abs=1e-10)

    @given(p=st.floats(min_value=-0.8, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_power_law_family(self, p):
        res = integrate_radial(lambda r: r**p, 0.0, 1.0,
                               singular_exponent=min(p, 0.0))
        assert res.value == pytest.approx(1.0 / (p + 1.0), rel=1e-6)

    def test_error_bound_is_honest(self):
        res = integrate_radial(lambda r: math.cos(3 * r), 0.0, 4.0)
        exact = math.sin(12.0) / 3.0
        assert abs(res.value - exact) <= max(res.error_bound, 1e-14)


class TestSphere:
    @pytest.mark.parametrize("d,total", [
        (1, 2.0),
        (2, 2.0 * math.pi),
        (3, 4.0 * math.pi),
    ])
    def test_weights_sum_to_surface_area(self, d, total):
        pts, wts = sphere_nodes(d)
        assert sum(wts) == pytest.approx(total, rel=1e-12)
        for p in pts:
            assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_odd_functions_integrate_to_zero(self, d):
        pts, wts = sphere_nodes(d)
        assert abs(wts @ pts[:, 0]) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quadratic_moments(self, d):
        # int_{S^{d-1}} theta_1^2 dsigma = |S^{d-1}| / d
        pts, wts = sphere_nodes(d)
        total = sum(wts)
        assert wts @ pts[:, 0] ** 2 == pytest.approx(total / d, rel=1e-9)

