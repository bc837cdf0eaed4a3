"""Kernel families against closed-form moment oracles and invariants."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import coeffs
from jumplab.config import FirstAxisCone, FirstCoordinatePositive
from jumplab.errors import AtomicKernelError, DivergentIntegral, DomainError
from jumplab.kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    CompoundPoissonAtoms,
    ConeRestriction,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
    bass_constant,
    surface_area,
)

ONE = coeffs.constant(1.0)
X0 = (0.0,)


def stable(c=1.0, alpha=1.0):
    return StableLikeSmall(coeffs.constant(c), coeffs.constant(alpha))


def power(c0=1.0, beta1=3.0):
    return BigJumpPowerLaw(coeffs.constant(c0), coeffs.constant(beta1))


class TestSurfaceArea:
    def test_values(self):
        # closed form: |S^0| = 2, |S^1| = 2pi, |S^2| = 4pi
        assert surface_area(1) == pytest.approx(2.0)
        assert surface_area(2) == pytest.approx(2.0 * math.pi)
        assert surface_area(3) == pytest.approx(4.0 * math.pi)


class TestBassConstant:
    def test_alpha_one(self):
        # closed form: alpha 2^{alpha-1} Gamma((alpha+d)/2) /
        #           (pi^{d/2} Gamma(1-alpha/2)) at alpha=1
        assert bass_constant(1.0, 1) == pytest.approx(1.0 / math.pi,
                                                      rel=1e-12)
        assert bass_constant(1.0, 3) == pytest.approx(
            1.0 / math.pi**2, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            bass_constant(0.0, 1)
        with pytest.raises(DomainError):
            bass_constant(2.0, 1)


class TestStableLikeSmall:
    def test_density_oracle(self):
        # closed form: c / |z|^{d+alpha} with c=1, alpha=1, d=1 at z=0.5
        rho = stable().radial_profile(X0, 1)
        assert rho(0.5) == pytest.approx(4.0, rel=1e-12)
        assert rho(1.5) == 0.0  # support is |z| < 1

    def test_second_moment_oracle(self):
        # closed form: c S_d / (2 - alpha) = 1*2/1 = 2
        k = KernelSpec(1, (stable(),))
        assert k.second_moment(X0).value == pytest.approx(2.0, rel=1e-8)

    def test_tail_mass_oracle(self):
        # closed form: c S_d (eps^{-alpha} - 1)/alpha = 2*(2-1) = 2
        comp = stable()
        assert comp.tail_mass(X0, 0.5, 1).value == pytest.approx(2.0, rel=1e-8)

    def test_dropped_variance_oracle(self):
        # closed form: c S_d eps^{2-alpha} / (2-alpha) = 2*0.1 = 0.2
        comp = stable()
        assert comp.dropped_variance(X0, 0.1, 1).value == pytest.approx(
            0.2, rel=1e-8
        )

    def test_diffusion_matrix_isotropic(self):
        k = KernelSpec(2, (stable(alpha=0.5),))
        dm = k.diffusion_matrix((0.0, 0.0))
        a = dm.a
        assert a[0, 0] == pytest.approx(a[1, 1], rel=1e-9)
        assert abs(a[0, 1]) < 1e-9
        # trace equals the full second moment
        assert np.trace(a) == pytest.approx(
            k.second_moment((0.0, 0.0)).value, rel=1e-8
        )

    def test_state_dependent_coefficient(self):
        c = coeffs.inverse_quadratic_bump(1.0, 0.5)
        k = KernelSpec(1, (StableLikeSmall(c, coeffs.constant(1.0)),))
        assert k.second_moment(X0).value == pytest.approx(3.0, rel=1e-8)
        assert k.second_moment((1.0,)).value == pytest.approx(2.5, rel=1e-8)

    def test_logarithmic_band(self):
        # alpha = 1, power 1: 2 int_0.1^1 r^{-1} dr = 2 log 10
        res = stable().moment(X0, 1, 0.1, math.inf, 1)
        assert res.value == pytest.approx(2.0 * math.log(10.0), rel=1e-15)

    @pytest.mark.parametrize("power", [0, 1])
    def test_divergent_band_at_origin(self, power):
        # alpha = 1: int_0^0.5 r^{power-2} dr diverges for power <= 1
        with pytest.raises(DivergentIntegral, match="power"):
            stable().moment(X0, power, 0.0, 0.5, 1)

    def test_bass_normalized_scaling(self):
        comp = StableLikeSmall(ONE, coeffs.constant(1.0),
                               bass_normalized=True)
        plain = stable()
        ratio = (comp.radial_profile(X0, 1)(0.5)
                 / plain.radial_profile(X0, 1)(0.5))
        assert ratio == pytest.approx(1.0 / math.pi, rel=1e-12)


class TestBigJumpPowerLaw:
    def test_density_oracle(self):
        # closed form: c0 / |z|^{d+beta1}, beta1=3, d=1 at z=2 -> 1/16
        rho = power().radial_profile(X0, 1)
        assert rho(2.0) == pytest.approx(0.0625, rel=1e-12)
        assert rho(0.5) == 0.0  # support is |z| >= 1

    def test_second_moment_oracle(self):
        # closed form: c0 S_d / (beta1 - 2) = 2
        k = KernelSpec(1, (power(),))
        assert k.second_moment(X0).value == pytest.approx(2.0, rel=1e-8)

    def test_divergent_when_beta_at_most_two(self):
        k = KernelSpec(1, (power(beta1=1.5),))
        with pytest.raises(DivergentIntegral):
            k.second_moment(X0)

    def test_dropped_variance_above_one(self):
        # closed form: 2 int_1^1.5 r^2 r^{-4} dr = 2 (1 - 1/1.5) = 2/3
        res = power().dropped_variance(X0, 1.5, 1)
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_dropped_variance_of_divergent_second_moment(self):
        # beta1 = 1.5: the full second moment diverges, a finite band
        # does not: 2 int_1^1.5 r^{-1/2} dr = 4 (sqrt(1.5) - 1)
        res = power(beta1=1.5).dropped_variance(X0, 1.5, 1)
        assert res.value == pytest.approx(4.0 * (math.sqrt(1.5) - 1.0),
                                          rel=1e-15)

    def test_logarithmic_band(self):
        # beta1 = 2: 2 int_1^1.5 r^{-1} dr = 2 log 1.5
        res = power(beta1=2.0).dropped_variance(X0, 1.5, 1)
        assert res.value == pytest.approx(2.0 * math.log(1.5), rel=1e-15)

    @pytest.mark.parametrize("p, what", [(1, "moment of power 1"),
                                         (2, "second moment")])
    def test_divergence_names_its_power(self, p, what):
        # the power-2 text is the one validation.txt prints
        with pytest.raises(DivergentIntegral) as exc:
            power(beta1=0.8).moment(X0, p, 1.0, math.inf, 1)
        assert str(exc.value) == \
            f"big-jump {what} diverges: beta1(x)=0.8 <= {p} at x=(0.0,)"

    def test_combined_diffusion(self):
        # closed form: stable (2) + power law (2) -> a = [[4]]
        k = KernelSpec(1, (stable(), power()))
        dm = k.diffusion_matrix(X0)
        assert dm.a[0, 0] == pytest.approx(4.0, rel=1e-8)

    def test_zero_drift_by_symmetry(self):
        k = KernelSpec(1, (power(),))
        vec, err = k.drift_tail(X0, 1.0)
        assert np.all(vec == 0.0)
        assert err == 0.0


class TestBigJumpStretchedExp:
    def test_second_moment_finite(self):
        comp = BigJumpStretchedExp(ONE, 1.0, coeffs.constant(1.0))
        k = KernelSpec(1, (comp,))
        # closed form: 2 int_1^inf r^2 e^{-r} dr = 2 * 5/e
        assert k.second_moment(X0).value == pytest.approx(10.0 / math.e,
                                                          rel=1e-8)

    def test_tail_mass(self):
        comp = BigJumpStretchedExp(ONE, 1.0, coeffs.constant(1.0))
        # closed form: 2 int_1^inf e^{-r} dr = 2/e
        assert comp.tail_mass(X0, 1.0, 1).value == pytest.approx(
            2.0 / math.e, rel=1e-8
        )

    def test_dropped_variance_above_one(self):
        comp = BigJumpStretchedExp(ONE, 1.0, coeffs.constant(1.0))
        # closed form: 2 int_1^2 r^2 e^{-r} dr = 2 (5/e - 10/e^2)
        assert comp.dropped_variance(X0, 2.0, 1).value == pytest.approx(
            2.0 * (5.0 / math.e - 10.0 / math.e**2), rel=1e-8
        )


class TestCompoundPoissonAtoms:
    def setup_method(self):
        self.comp = CompoundPoissonAtoms(((1.0, (0.5,)), (1.0, (-0.5,))))
        self.k = KernelSpec(1, (self.comp,))

    def test_second_moment(self):
        # closed form: sum w |z|^2 = 0.5
        assert self.k.second_moment(X0).value == 0.5

    def test_density_raises(self):
        # a cone restricts a density, and atoms have none
        with pytest.raises(AtomicKernelError):
            ConeRestriction(self.comp, FirstCoordinatePositive())

    def test_odd_symmetry_detected(self):
        assert self.comp.odd_symmetric
        asym = CompoundPoissonAtoms(((1.0, (0.5,)),))
        assert not asym.odd_symmetric

    def test_one_sided_drift(self):
        asym = CompoundPoissonAtoms(((1.0, (0.5,)),))
        # atom inside |z| < 1; drift over |z| >= eps with eps=0.1
        assert asym.moment(X0, 1, 0.1, math.inf, 1, 1).value == (0.5,)

    def test_diffusion_exact(self):
        a = np.asarray(self.comp.moment(X0, 2, 0.0, math.inf, 1, 2).value)
        assert a[0, 0] == 0.5

    def test_scaling_quadruples_second_moment(self):
        doubled = CompoundPoissonAtoms(((1.0, (1.0,)), (1.0, (-1.0,))))
        assert KernelSpec(1, (doubled,)).second_moment(X0).value == \
            pytest.approx(4.0 * self.k.second_moment(X0).value)


class _PositiveHalf:
    symmetric = False

    def __call__(self, z):
        return z[0] > 0


class TestConeRestriction:
    def test_one_sided_drift_oracle(self):
        # closed form: int_{z >= 1} z * z^{-4} dz = 1/2 for one-sided power law
        cone = ConeRestriction(power(), _PositiveHalf(), symmetric=False)
        k = KernelSpec(1, (cone,))
        vec, err = k.drift_tail(X0, 1.0)
        assert vec[0] == pytest.approx(0.5, rel=1e-7)
        assert err < 1e-6

    def test_halved_mass(self):
        cone = ConeRestriction(power(), _PositiveHalf(), symmetric=False)
        full = power()
        assert cone.tail_mass(X0, 1.0, 1).value == pytest.approx(
            0.5 * full.tail_mass(X0, 1.0, 1).value, rel=1e-8
        )

    def test_dropped_variance_one_sided_power_law(self):
        # closed form: int_1^1.5 z^2 z^{-4} dz = 1/3
        cone = ConeRestriction(power(), FirstCoordinatePositive())
        res = cone.dropped_variance(X0, 1.5, 1)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_dropped_variance_first_axis_power_law(self):
        # the first-axis cone is half of the circle:
        # pi int_1^1.5 r^2 r^{-5} r dr = pi/3
        cone = ConeRestriction(power(), FirstAxisCone(), symmetric=True)
        res = cone.dropped_variance((0.0, 0.0), 1.5, 2)
        assert res.value == pytest.approx(math.pi / 3.0, rel=1e-12)

    def test_dropped_variance_one_sided_stable(self):
        # closed form: int_0^0.1 z^2 z^{-2} dz = 0.1
        cone = ConeRestriction(stable(), FirstCoordinatePositive())
        res = cone.dropped_variance(X0, 0.1, 1)
        assert res.value == pytest.approx(0.1, abs=1e-8)

    def test_one_sided_drift_stable_order_one(self):
        # closed form: int_0.1^1 z z^{-2} dz = log 10
        cone = ConeRestriction(stable(), FirstCoordinatePositive())
        res = cone.moment(X0, 1, 0.1, math.inf, 1, 1)
        vec, err = res.value, res.error_bound
        assert vec[0] == pytest.approx(math.log(10.0), rel=1e-15)
        assert err == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("base", ["power", "stable"])
    def test_closed_form_base_needs_no_quadrature(self, monkeypatch, base, d):
        # a cone's moments are its base's times angular sums, so over a
        # closed-form base they integrate nothing, which is what lets a
        # state-dependent cone be simulated
        def forbidden(*args, **kwargs):
            raise AssertionError("radial quadrature")

        monkeypatch.setattr("jumplab.kernels.integrate_radial", forbidden)
        bump = _bump(1.0, 0.5)
        comp = {"power": BigJumpPowerLaw(bump, coeffs.constant(3.0)),
                "stable": StableLikeSmall(bump, _bump(0.8, 0.6))}[base]
        x = (0.3, -0.4, 0.2)[:d]
        for pred in (FirstAxisCone(), FirstCoordinatePositive()):
            cone = ConeRestriction(comp, pred)
            assert cone.second_moment(x, d).value > 0.0
            assert cone.tail_mass(x, 0.1, d).value > 0.0
            assert cone.dropped_variance(x, 0.1, d).value >= 0.0
            assert np.all(np.isfinite(
                cone.moment(x, 1, 0.1, math.inf, d, 1).value))
            assert np.trace(cone.moment(x, 2, 0.0, math.inf, d, 2).value) \
                > 0.0


class TestHuntDifference:
    @staticmethod
    def decompose(comp, x, y):
        """``(J, Js, Ja)`` at ``(x, y)``: ``J(x, y)`` is the density at
        ``x`` of the jump ``|y - x|``, and ``Js``, ``Ja`` are its
        symmetric and antisymmetric parts."""
        r = abs(y[0] - x[0])
        jxy = comp.radial_profile(x, 1)(r)
        jyx = comp.radial_profile(y, 1)(r)
        return jxy, 0.5 * (jxy + jyx), 0.5 * (jxy - jyx)

    def test_decomposition_oracle(self):
        # closed form: c=1, alpha(r)=1, d=1: J(x,y) = c(x)/|x-y|^2
        comp = HuntDifference(ONE, coeffs.constant(1.0))
        J, Js, Ja = self.decompose(comp, (0.0,), (0.5,))
        assert J == pytest.approx(4.0, rel=1e-12)
        assert Js == pytest.approx(4.0, rel=1e-12)
        assert Ja == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetric_part(self):
        c = coeffs.inverse_quadratic_bump(1.0, 1.0)  # c(0)=2, c(0.5)=1.8
        comp = HuntDifference(c, coeffs.constant(1.0))
        J, Js, Ja = self.decompose(comp, (0.0,), (0.5,))
        # J = c(0)*4 = 8, J(y,x) = c(0.5)*4 = 7.2
        assert J == pytest.approx(8.0, rel=1e-12)
        assert Js == pytest.approx(7.6, rel=1e-12)
        assert Ja == pytest.approx(0.4, rel=1e-12)
        # antisymmetry of the antisymmetric part
        _, _, Ja_rev = self.decompose(comp, (0.5,), (0.0,))
        assert Ja_rev == pytest.approx(-Ja, rel=1e-12)

    def test_constant_alpha_second_moment_diverges(self):
        # int_1^inf r^2 r^{-1-1} dr = inf
        comp = HuntDifference(ONE, coeffs.constant(1.0))
        with pytest.raises(DivergentIntegral):
            KernelSpec(1, (comp,)).second_moment(X0)

    def test_growing_alpha_second_moment(self):
        # alpha(r) = 1 + 2*clamp(r, 0, 1): order 3 in the tail
        alpha = coeffs.from_source("1 + 2*clamp(|x|, 0, 1)", 1.0, 3.0)
        comp = HuntDifference(ONE, alpha)
        k = KernelSpec(1, (comp,))
        # closed form: 2*(int_0^1 r^{1-(1+2r)} dr + int_1^inf r^{-2} dr)
        from jumplab.quadrature import integrate_radial

        inner = integrate_radial(lambda r: r ** (1 - (1 + 2 * r)), 0.0, 1.0,
                                 singular_exponent=0.0)
        expect = 2.0 * (inner.value + 1.0)
        assert k.second_moment(X0).value == pytest.approx(expect, rel=1e-6)


class TestKernelSpecInvariants:
    @given(alpha=st.floats(min_value=0.2, max_value=1.8),
           c=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_second_moment_closed_form(self, alpha, c):
        k = KernelSpec(1, (stable(c, alpha),))
        expect = c * 2.0 / (2.0 - alpha)
        assert k.second_moment(X0).value == pytest.approx(expect, rel=1e-7)

    @given(eps1=st.floats(min_value=0.05, max_value=0.5),
           eps2=st.floats(min_value=0.5, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_tail_mass_monotone_in_eps(self, eps1, eps2):
        k = KernelSpec(1, (stable(), power()))
        assert k.total_mass_tail(X0, eps1).value >= k.total_mass_tail(X0, eps2).value

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diffusion_matrix_psd_and_symmetric(self, d):
        k = KernelSpec(d, (stable(alpha=1.2),))
        x = tuple([0.3] * d)
        a = k.diffusion_matrix(x).a
        assert np.allclose(a, a.T)
        assert np.min(np.linalg.eigvalsh(a)) >= -1e-12

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(4, (stable(),))

    def test_state_independence_detection(self):
        assert KernelSpec(1, (stable(),)).is_state_independent()
        bump = StableLikeSmall(coeffs.inverse_quadratic_bump(1.0, 0.5),
                               coeffs.constant(1.0))
        assert not KernelSpec(1, (bump,)).is_state_independent()


class TestSurfaceAreaCache:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_bit_equal_to_formula(self, d):
        assert surface_area(d) == \
            2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def first_axis_numpy(z):
    z = np.atleast_1d(z)
    return bool(np.abs(z[0]) >= np.max(np.abs(z)))


def first_positive_numpy(z):
    return bool(z[0] > 0)


class TestShippedPredicates:
    _EDGES = [(0.0,), (-0.0,), (2.0,), (-2.0,), (1.0, -1.0), (-1.0, 1.0),
              (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-1.0, 1.0, 1.0),
              (1.0, 1.0, -1.0), (0.5, 0.5000000000000001), (-0.0, 1e-300)]

    def _cases(self):
        rng = np.random.default_rng(7)
        zs = [np.array(z) for z in self._EDGES]
        for d in (1, 2, 3):
            zs += list(rng.standard_normal((200, d)))
        return zs

    def test_first_axis_matches_numpy(self):
        pred = FirstAxisCone()
        for z in self._cases():
            assert pred(z) is first_axis_numpy(z)
            assert pred(tuple(z)) is first_axis_numpy(z)

    def test_first_positive_matches_numpy(self):
        pred = FirstCoordinatePositive()
        for z in self._cases():
            assert pred(z) is first_positive_numpy(z)
            assert pred(tuple(z)) is first_positive_numpy(z)


# The cone of the 2-d benchmark kernel (seed 1): 0.843 + 0.179 x1^2/(1 +
# |x|^2) over |z|^{-5} on |z| >= 1, in the first-axis cone.  Recorded
# with one radial quadrature per sphere node, at rtol = 1e-8; float.hex
# of value and error bound, and the evaluation count.
PINNED_CONE = {
    (0.0, 0.0): {
        "second_moment": ("0x1.52fd8b96150ccp+1", "0x1.52fd90e44a4efp-4",
                          14880),
        "tail_mass": ("0x1.c3fcba4ee10b7p-1", "0x1.c3fcbdcb55d5bp-6", 6720),
        "drift_tail": (["-0x1.c000000000000p-54", "0x1.a800000000000p-56"],
                       "0x1.acc64700a6f80p-30"),
        "diffusion": (["0x1.15929ebfac78cp+1", "-0x1.2500000000000p-52",
                       "-0x1.2500000000000p-52", "0x1.eb5766b344a1fp-2"],
                      "0x1.52fd90e44a4f3p-4"),
    },
    (2.0, -2.0): {
        "second_moment": ("0x1.72fb4a0170e43p+1", "0x1.72fb4fcff06c5p-4",
                          14880),
        "tail_mass": ("0x1.eea462e2b0806p-1", "0x1.eea466d502188p-6", 6720),
        "drift_tail": (["0x1.c000000000000p-55", "-0x1.2800000000000p-56"],
                       "0x1.d9c54915cde71p-30"),
        "diffusion": (["0x1.2fc48f909b4f5p+1", "-0x1.0400000000000p-52",
                       "-0x1.0400000000000p-52", "0x1.0cdae9c356542p-1"],
                      "0x1.72fb4fcff06c8p-4"),
    },
    (-0.75, 1.5): {
        "second_moment": ("0x1.5d9c458da7ffdp+1", "0x1.5d9c4b0673660p-4",
                          14880),
        "tail_mass": ("0x1.d225b24531741p-1", "0x1.d225b5e84acfbp-6", 6720),
        "drift_tail": (["0x1.0000000000000p-56", "-0x1.0000000000000p-61"],
                       "0x1.bba588372e89ep-30"),
        "diffusion": (["0x1.1e44c5c614f02p+1", "-0x1.d600000000000p-53",
                       "-0x1.d600000000000p-53", "0x1.fabbfe3c987a3p-2"],
                      "0x1.5d9c4b0673659p-4"),
    },
}


# the per-node quadrature's radial tolerance, which the pins carry
PIN_RTOL = 2e-8


def _unhex(v):
    return np.array([float.fromhex(c) for c in np.ravel(v)])


class TestPinnedConeMoments:
    """The product form against the per-node pins above: equal within
    their radial tolerance, scaled for a vector by the first absolute
    moment and for a matrix by the trace.  The circle's nodes put half
    the weight in the first-axis cone, so its moments are half the
    base's."""

    cone = ConeRestriction(
        BigJumpPowerLaw(
            coeffs.from_source("0.843 + 0.179*x[1]^2/(1 + |x|^2)",
                               0.843, 1.022),
            coeffs.constant(3.0)),
        FirstAxisCone(), symmetric=True)

    @pytest.mark.parametrize("x", list(PINNED_CONE))
    def test_bit_for_bit(self, x):
        want = PINNED_CONE[x]
        base = self.cone.base
        for name, res, half in (
                ("second_moment", self.cone.second_moment(x, 2),
                 base.second_moment(x, 2)),
                ("tail_mass", self.cone.tail_mass(x, 0.1, 2),
                 base.tail_mass(x, 0.1, 2))):
            assert res.value == pytest.approx(float.fromhex(want[name][0]),
                                              rel=PIN_RTOL)
            assert res.value == pytest.approx(0.5 * half.value, rel=1e-15)
        first = self.cone.moment(x, 1, 0.1, math.inf, 2).value
        for name, v, scale in (
                ("drift_tail", self.cone.moment(x, 1, 0.1, math.inf, 2, 1)
                 .value, first),
                ("diffusion", self.cone.moment(x, 2, 0.0, math.inf, 2, 2)
                 .value, self.cone.second_moment(x, 2).value)):
            gap = np.max(np.abs(np.ravel(v) - _unhex(want[name][0])))
            assert gap <= PIN_RTOL * scale


def _bump(base, amplitude):
    return coeffs.inverse_quadratic_bump(base, amplitude)


def moment_families(d):
    """One component of each family in R^d, with state-dependent
    coefficients, and a cone over each of the two shipped predicates."""
    small = StableLikeSmall(_bump(1.0, 0.5), _bump(0.8, 0.6))
    big = BigJumpPowerLaw(
        coeffs.from_source("0.843 + 0.179*x[1]^2/(1 + |x|^2)", 0.843, 1.022),
        _bump(3.0, 0.5))
    e = np.eye(d)
    return {
        "stable": small,
        "stable_bass": StableLikeSmall(_bump(1.0, 0.5), _bump(0.8, 0.6),
                                       True),
        "power": big,
        "stretched": BigJumpStretchedExp(_bump(1.0, 0.5), 1.0,
                                         _bump(0.8, 0.4)),
        "atoms": CompoundPoissonAtoms(((0.5, tuple(0.03 * e[0])),
                                       (1.0, tuple(-0.3 * np.ones(d))),
                                       (0.25, tuple(2.0 * e[-1])))),
        "hunt": HuntDifference(_bump(1.0, 0.5), coeffs.from_source(
            "1 + 2*clamp(|x|, 0, 1)", 1.0, 3.0)),
        "cone_positive": ConeRestriction(small, FirstCoordinatePositive()),
        "cone_axis": ConeRestriction(big, FirstAxisCone(), symmetric=True),
    }


MOMENT_STATES = [(0.0, 0.0, 0.0), (0.5, -1.0, 0.25), (-2.0, 0.75, 1.5)]

# second_moment, tail_mass and dropped_variance at eps = 0.05 and 0.5 of
# every family above, as float.hex of the value and error bound and the
# evaluation count, recorded when each family wrote out its own three
# methods.  A cone's dropped variance is left out: it was the difference
# of two integrals then.  A cone's pins are of one radial quadrature per
# sphere node, so they hold to PIN_RTOL only.
PINNED_MOMENTS = json.loads(
    (pathlib.Path(__file__).parent / "pinned_moments.json").read_text())


def _moment_calls(name, comp, x, d):
    yield "second_moment", lambda: comp.second_moment(x, d)
    for eps in (0.05, 0.5):
        yield f"tail_mass {eps}", lambda e=eps: comp.tail_mass(x, e, d)
        if not name.startswith("cone"):
            yield (f"dropped_variance {eps}",
                   lambda e=eps: comp.dropped_variance(x, e, d))


# The share of its base a cone holds where the sphere nodes give it
# exactly: first_positive is half of the sphere in every d, first_axis
# all of the line and half of the circle.  The 3-d first_axis cone is a
# third of the sphere, but its nodes carry 0.3429 of the weight.
CONE_SHARES = {("cone_positive", 1): 0.5, ("cone_positive", 2): 0.5,
               ("cone_positive", 3): 0.5, ("cone_axis", 1): 1.0,
               ("cone_axis", 2): 0.5}


class TestPinnedMoments:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(moment_families(1)))
    def test_bit_for_bit(self, name, d):
        comp = moment_families(d)[name]
        cone = name.startswith("cone")
        for s in MOMENT_STATES:
            x = s[:d]
            bases = _moment_calls(name, comp.base, x, d) if cone else None
            for method, call in _moment_calls(name, comp, x, d):
                res = call()
                key = f"{name} d={d} x={list(x)} {method}"
                want = PINNED_MOMENTS[key]
                if not cone:
                    assert [float(res.value).hex(),
                            float(res.error_bound).hex(),
                            res.evaluations] == want, key
                    continue
                assert res.value == pytest.approx(float.fromhex(want[0]),
                                                  rel=PIN_RTOL), key
                base = next(bases)[1]()
                if (name, d) in CONE_SHARES:
                    assert res.value == pytest.approx(
                        CONE_SHARES[name, d] * base.value, rel=1e-15), key


# KernelSpec.drift_tail at eps = 0.05 and 0.5 and diffusion_matrix of
# every family above, as float.hex of each entry and of the error bound,
# recorded when each component still had its own drift_tail and
# diffusion methods.  Odd-symmetric families give an exact zero drift.
class TestPinnedDriftDiffusion:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(moment_families(1)))
    def test_bit_for_bit(self, name, d):
        k = KernelSpec(d, (moment_families(d)[name],))
        for s in MOMENT_STATES:
            x = s[:d]
            key = f"{name} d={d} x={list(x)}"
            for eps in (0.05, 0.5):
                vec, err = k.drift_tail(x, eps)
                assert [[float(v).hex() for v in vec], float(err).hex()] \
                    == PINNED_MOMENTS[f"{key} drift_tail {eps}"], key
            dm = k.diffusion_matrix(x)
            assert [[float(v).hex() for v in np.ravel(dm.a)],
                    float(dm.quadrature_error).hex()] \
                == PINNED_MOMENTS[f"{key} diffusion_matrix"], key


class TestBandAdditivity:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(moment_families(1)))
    def test_bands_sum_to_second_moment(self, name, d):
        comp = moment_families(d)[name]
        x = MOMENT_STATES[1][:d]
        full = comp.second_moment(x, d)
        for eps in (0.5, 1.5):
            below = comp.moment(x, 2, 0.0, eps, d)
            above = comp.moment(x, 2, eps, math.inf, d)
            # closed forms have no error bound: allow their rounding
            slack = (below.error_bound + above.error_bound
                     + full.error_bound + 1e-15 * full.value)
            assert abs(below.value + above.value - full.value) <= slack

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(moment_families(1)))
    def test_bands_sum_to_diffusion_matrix(self, name, d):
        comp = moment_families(d)[name]
        x = MOMENT_STATES[1][:d]
        full = comp.moment(x, 2, 0.0, math.inf, d, 2)
        for eps in (0.5, 1.5):
            below = comp.moment(x, 2, 0.0, eps, d, 2)
            above = comp.moment(x, 2, eps, math.inf, d, 2)
            # closed forms have no error bound: allow their rounding
            slack = (below.error_bound + above.error_bound
                     + full.error_bound + 1e-15 * np.trace(full.value))
            gap = np.abs(below.value + above.value - full.value)
            assert np.max(gap) <= slack

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_bands_sum_to_diffusion_matrix(self, d):
        # KernelSpec.moment sums the families: its bands of the matrix
        # add up to diffusion_matrix
        kernel = KernelSpec(d, tuple(moment_families(d).values()))
        x = MOMENT_STATES[1][:d]
        full = kernel.diffusion_matrix(x)
        for eps in (0.5, 1.5):
            below = kernel.moment(x, 2, 0.0, eps, 2)
            above = kernel.moment(x, 2, eps, math.inf, 2)
            slack = (below.error_bound + above.error_bound
                     + full.quadrature_error + 1e-15 * np.trace(full.a))
            gap = np.abs(below.value + above.value - full.a)
            assert np.max(gap) <= slack
