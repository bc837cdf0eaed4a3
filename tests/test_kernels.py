"""Kernel families against closed-form moment oracles and invariants."""

import math

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
    EnvelopePair,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
    bass_constant,
    hunt_decompose,
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
        assert bass_constant(1.0, 1).value == pytest.approx(1.0 / math.pi,
                                                            rel=1e-12)
        assert bass_constant(1.0, 3).value == pytest.approx(
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
        k = KernelSpec(1, (stable(),))
        assert k.density(X0, (0.5,)) == pytest.approx(4.0, rel=1e-12)
        assert k.density(X0, (1.5,)) == 0.0  # support is |z| < 1

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

    def test_bass_normalized_scaling(self):
        comp = StableLikeSmall(ONE, coeffs.constant(1.0),
                               bass_normalized=True)
        plain = stable()
        ratio = comp.density(X0, (0.5,), 1) / plain.density(X0, (0.5,), 1)
        assert ratio == pytest.approx(1.0 / math.pi, rel=1e-12)


class TestBigJumpPowerLaw:
    def test_density_oracle(self):
        # closed form: c0 / |z|^{d+beta1}, beta1=3, d=1 at z=2 -> 1/16
        k = KernelSpec(1, (power(),))
        assert k.density(X0, (2.0,)) == pytest.approx(0.0625, rel=1e-12)
        assert k.density(X0, (0.5,)) == 0.0  # support is |z| >= 1

    def test_second_moment_oracle(self):
        # closed form: c0 S_d / (beta1 - 2) = 2
        k = KernelSpec(1, (power(),))
        assert k.second_moment(X0).value == pytest.approx(2.0, rel=1e-8)

    def test_divergent_when_beta_at_most_two(self):
        k = KernelSpec(1, (power(beta1=1.5),))
        with pytest.raises(DivergentIntegral):
            k.second_moment(X0)

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


class TestCompoundPoissonAtoms:
    def setup_method(self):
        self.comp = CompoundPoissonAtoms(((1.0, (0.5,)), (1.0, (-0.5,))))
        self.k = KernelSpec(1, (self.comp,))

    def test_second_moment(self):
        # closed form: sum w |z|^2 = 0.5
        assert self.k.second_moment(X0).value == 0.5

    def test_density_raises(self):
        with pytest.raises(AtomicKernelError):
            self.k.density(X0, (0.5,))

    def test_odd_symmetry_detected(self):
        assert self.comp.odd_symmetric
        asym = CompoundPoissonAtoms(((1.0, (0.5,)),))
        assert not asym.odd_symmetric

    def test_one_sided_drift(self):
        asym = CompoundPoissonAtoms(((1.0, (0.5,)),))
        # atom inside |z| < 1; drift over |z| >= eps with eps=0.1
        assert asym.drift_tail_exact(X0, 0.1, 1) == (0.5,)

    def test_diffusion_exact(self):
        a = np.asarray(self.comp.diffusion_exact(X0, 1))
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


class TestHuntDifference:
    def test_decomposition_oracle(self):
        # closed form: c=1, alpha(r)=1, d=1: J(x,y) = c(x)/|x-y|^2
        comp = HuntDifference(ONE, coeffs.constant(1.0))
        J, Js, Ja = hunt_decompose(comp, (0.0,), (0.5,))
        assert J == pytest.approx(4.0, rel=1e-12)
        assert Js == pytest.approx(4.0, rel=1e-12)
        assert Ja == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetric_part(self):
        c = coeffs.inverse_quadratic_bump(1.0, 1.0)  # c(0)=2, c(0.5)=1.8
        comp = HuntDifference(c, coeffs.constant(1.0))
        J, Js, Ja = hunt_decompose(comp, (0.0,), (0.5,))
        # J = c(0)*4 = 8, J(y,x) = c(0.5)*4 = 7.2
        assert J == pytest.approx(8.0, rel=1e-12)
        assert Js == pytest.approx(7.6, rel=1e-12)
        assert Ja == pytest.approx(0.4, rel=1e-12)
        # antisymmetry of the antisymmetric part
        _, _, Ja_rev = hunt_decompose(comp, (0.5,), (0.0,))
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


class TestEnvelopePair:
    def test_requires_state_independent(self):
        bump = StableLikeSmall(coeffs.inverse_quadratic_bump(1.0, 0.5),
                               coeffs.constant(1.0))
        with pytest.raises(ValueError):
            EnvelopePair(None, KernelSpec(1, (bump,)))

    def test_accepts_constant_kernels(self):
        pair = EnvelopePair(KernelSpec(1, (stable(0.5),)),
                            KernelSpec(1, (stable(2.0),)))
        assert pair.nu2 is not None


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


def _hex(v):
    return [float(c).hex() for c in np.ravel(v)]


# The cone of the 2-d benchmark kernel (seed 1): 0.843 + 0.179 x1^2/(1 +
# |x|^2) over |z|^{-5} on |z| >= 1, in the first-axis cone.  Recorded
# with the per-node evaluation of the coefficients; binding them once per
# state must reproduce every bit, error bound and evaluation count.
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


class TestPinnedConeMoments:
    cone = ConeRestriction(
        BigJumpPowerLaw(
            coeffs.from_source("0.843 + 0.179*x[1]^2/(1 + |x|^2)",
                               0.843, 1.022),
            coeffs.constant(3.0)),
        FirstAxisCone(), symmetric=True)

    @pytest.mark.parametrize("x", list(PINNED_CONE))
    def test_bit_for_bit(self, x):
        want = PINNED_CONE[x]
        for name, res in (("second_moment", self.cone.second_moment(x, 2)),
                          ("tail_mass", self.cone.tail_mass(x, 0.1, 2))):
            assert (res.value.hex(), res.error_bound.hex(),
                    res.evaluations) == want[name]
        for name, (v, err) in (("drift_tail", self.cone.drift_tail(x, 0.1, 2)),
                               ("diffusion", self.cone.diffusion(x, 2))):
            assert (_hex(v), float(err).hex()) == want[name]
