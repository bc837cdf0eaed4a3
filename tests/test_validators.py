"""Sufficient-condition checks: the truth table and its witnesses."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from jumplab import coeffs
from jumplab.config import PREDICATES
from jumplab.kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    CompoundPoissonAtoms,
    ConeRestriction,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
)
from jumplab.validators import (
    ADVISORY,
    FAIL,
    PASS,
    StateGrid,
    audit_cone_symmetry,
    check_big_jump_conditions,
    check_ellipticity,
    check_hunt_conditions,
    check_index_regularity,
    check_second_moment,
    check_zero_drift,
    default_grid,
    run_all,
)

ONE = coeffs.constant(1.0)


def stable(c=1.0, alpha=1.0):
    return StableLikeSmall(coeffs.constant(c), coeffs.constant(alpha))


def power(c0=1.0, beta1=3.0):
    return BigJumpPowerLaw(coeffs.constant(c0), coeffs.constant(beta1))


def small_grid(d=1, extent=5.0, n=21):
    return default_grid(d, extent, n)


class _PositiveHalf:
    symmetric = False

    def __call__(self, z):
        return z[0] > 0


class TestStateGrid:
    def test_defaults(self):
        g1 = default_grid(1)
        assert len(g1.points) == 201
        assert g1.points[0] == (-10.0,)
        assert g1.points[-1] == (10.0,)
        g2 = default_grid(2)
        assert len(g2.points) == 41 * 41
        assert g2.pair_radii[0] == 0.5
        assert g2.pair_radii[-1] == 2.0**-12

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            StateGrid(1, ((0.0,),), (0.25, 0.5))


class TestSecondMoment:
    def test_pass_with_sup(self):
        k = KernelSpec(1, (stable(), power()))
        res = check_second_moment(k, small_grid())
        assert res.verdict == PASS
        assert res.evidence["sup"] == pytest.approx(4.0, rel=1e-7)

    def test_divergent_tail_fails_with_witness(self):
        k = KernelSpec(1, (power(beta1=1.5),))
        res = check_second_moment(k, small_grid())
        assert res.verdict == FAIL
        assert res.witness is not None


class TestZeroDrift:
    def test_symmetric_short_circuit(self):
        k = KernelSpec(1, (stable(),))
        res = check_zero_drift(k, small_grid())
        assert res.verdict == PASS
        assert res.evidence["max_abs_drift"] == 0.0

    def test_one_sided_kernel_fails_with_witness(self):
        cone = ConeRestriction(power(), _PositiveHalf(), symmetric=False)
        k = KernelSpec(1, (cone,))
        res = check_zero_drift(k, small_grid(n=5))
        assert res.verdict == FAIL
        # closed form: the one-sided drift at threshold 1 equals 0.5
        assert res.evidence["max_abs_drift"] == pytest.approx(0.5, rel=1e-6)
        assert res.witness is not None


class TestEllipticity:
    def test_isotropic_passes(self):
        k = KernelSpec(2, (stable(alpha=1.0),))
        res = check_ellipticity(k, small_grid(2, 2.0, 5))
        assert res.verdict == PASS
        ev = res.evidence
        assert ev["lambda_hat"] == pytest.approx(ev["Lambda_hat"], rel=1e-9)

    def test_axis_supported_2d_fails(self):
        # jumps only along the first axis: a_22 = 0
        atoms = CompoundPoissonAtoms(
            ((1.0, (0.5, 0.0)), (1.0, (-0.5, 0.0)))
        )
        k = KernelSpec(2, (atoms,))
        res = check_ellipticity(k, small_grid(2, 2.0, 5))
        assert res.verdict == FAIL
        assert res.evidence["lambda_hat"] == pytest.approx(0.0, abs=1e-12)

    def test_state_dependent_bounds(self):
        c = coeffs.inverse_quadratic_bump(1.0, 1.0)
        k = KernelSpec(1, (StableLikeSmall(c, coeffs.constant(1.0)),))
        res = check_ellipticity(k, small_grid())
        assert res.verdict == PASS
        # closed form: a(x) = 2 c(x): c in (1, 2] on the grid
        assert res.evidence["Lambda_hat"] == pytest.approx(4.0, rel=1e-7)
        assert res.evidence["lambda_hat"] > 2.0


class TestIndexRegularity:
    def test_constant_order_passes(self):
        res = check_index_regularity(coeffs.constant(1.3), small_grid())
        assert res.verdict == PASS

    def test_out_of_range_fails(self):
        res = check_index_regularity(coeffs.constant(2.0), small_grid())
        assert res.verdict == FAIL

    def test_smooth_variable_order_is_advisory(self):
        alpha = coeffs.inverse_quadratic_bump(1.0, 0.5)
        res = check_index_regularity(alpha, small_grid())
        assert res.verdict == ADVISORY
        omega = res.evidence["omega"]
        # the modulus shrinks with the radius
        assert omega[-1] <= omega[0]
        assert res.evidence["dini_sum_estimate"] < float("inf")


class TestBigJump:
    def test_power_law_pass(self):
        res = check_big_jump_conditions(power(), small_grid())
        assert res.verdict == PASS
        assert res.evidence["inf_beta1"] == 3.0

    def test_power_law_beta_too_small(self):
        res = check_big_jump_conditions(power(beta1=2.0), small_grid())
        assert res.verdict == FAIL

    def test_stretched_exp_pass(self):
        comp = BigJumpStretchedExp(ONE, 2.0, coeffs.constant(0.5))
        res = check_big_jump_conditions(comp, small_grid())
        assert res.verdict == PASS

    def test_stretched_exp_bad_exponent(self):
        comp = BigJumpStretchedExp(ONE, 2.0, coeffs.constant(0.0))
        res = check_big_jump_conditions(comp, small_grid())
        assert res.verdict == FAIL


class TestHunt:
    def test_constant_c_growing_alpha_passes(self):
        alpha = coeffs.from_source("0.5 + 2*clamp(|x|, 0, 1)", 0.5, 2.5)
        comp = HuntDifference(ONE, alpha)
        res = check_hunt_conditions(comp, small_grid())
        assert res.verdict == PASS
        assert res.evidence["radial_integral"] > 0.0

    def test_variable_c_is_advisory(self):
        alpha = coeffs.from_source("0.5 + 2*clamp(|x|, 0, 1)", 0.5, 2.5)
        c = coeffs.inverse_quadratic_bump(1.0, 0.5)
        comp = HuntDifference(c, alpha)
        res = check_hunt_conditions(comp, small_grid())
        assert res.verdict == ADVISORY
        assert res.evidence["asymmetry_integral_bound"] >= 0.0

    def test_divergent_radial_integral_fails(self):
        comp = HuntDifference(ONE, coeffs.constant(0.5))
        res = check_hunt_conditions(comp, small_grid())
        assert res.verdict == FAIL


class _SymmetricButNot:
    symmetric = True

    def __call__(self, z):
        return z[0] > 0  # lies about A = -A


class TestConeAudit:
    def test_declared_symmetry_violation(self):
        cone = ConeRestriction(power(), _SymmetricButNot(), symmetric=True)
        zs = [np.array([0.5]), np.array([1.5])]
        res = audit_cone_symmetry(cone, zs)
        assert res.verdict == FAIL


def _raising(source):
    """A 1-d stable-like component whose c is ``source``."""
    return StableLikeSmall(coeffs.from_source(source, 1.0, 2.0),
                           coeffs.constant(1.5))


class TestCoefficientThatRaises:
    # x[2] does not exist in 1-d (IndexError), and sqrt(x[1]) raises
    # DomainError for x < 0: each check reports the first grid point, -2,
    # instead of raising
    @pytest.mark.parametrize("check, comp", [
        (check_second_moment, _raising("1 + x[2]")),
        (check_ellipticity, _raising("1 + x[2]")),
        (check_zero_drift, ConeRestriction(
            _raising("1 + x[2]"), PREDICATES["first_positive"]())),
        (check_second_moment, _raising("1 + sqrt(x[1])")),
    ], ids=["second_moment", "ellipticity", "zero_drift",
            "second_moment_sqrt"])
    def test_fails_with_witness(self, check, comp):
        res = check(KernelSpec(1, (comp,)), small_grid(extent=2.0, n=5))
        assert res.verdict == FAIL
        assert res.witness == (-2.0,)
        assert res.evidence["error"]


class TestRunAll:
    def test_admissible_family_has_no_fail(self):
        # small stable-like part plus dominated power-law big jumps
        c = coeffs.inverse_quadratic_bump(1.0, 0.5)
        alpha = coeffs.inverse_quadratic_bump(1.0, 0.5)
        k = KernelSpec(1, (
            StableLikeSmall(c, alpha),
            power(),
        ))
        report = run_all(k, small_grid())
        assert not report.has_fail
        names = {c.name for c in report.checks}
        assert {"second_moment", "zero_drift", "ellipticity",
                "big_jump", "index_regularity"} <= names

    @pytest.mark.parametrize("base,check", [
        (BigJumpPowerLaw(coeffs.inverse_quadratic_bump(1.0, 0.5),
                         coeffs.constant(3.0)), "big_jump"),
        (StableLikeSmall(ONE, coeffs.inverse_quadratic_bump(1.0, 0.5)),
         "index_regularity"),
    ])
    def test_cone_base_gets_its_family_checks(self, base, check):
        cone = ConeRestriction(base, _PositiveHalf(), symmetric=False)
        report = run_all(KernelSpec(1, (cone,)), small_grid(extent=2.0, n=5))
        assert check in {c.name for c in report.checks}

    def test_report_text_lists_verdicts(self):
        k = KernelSpec(1, (stable(),))
        report = run_all(k, small_grid())
        text = report.to_text()
        assert "verdict = pass" in text
        assert "second_moment" in text


def report_kernels(d):
    """Each family in R^d with state-dependent coefficients, bare, and
    each density family under the two shipped cones."""
    bump = coeffs.inverse_quadratic_bump
    e = np.eye(d)
    atoms = tuple((w, tuple(s * 0.5 * e[k]))
                  for k, w in enumerate((1.0, 0.5, 2.0)[:d]) for s in (1, -1))
    families = {
        "stable": StableLikeSmall(bump(1.0, 0.5), bump(1.0, 0.5)),
        "power": BigJumpPowerLaw(
            coeffs.from_source("1 + 0.2*x[1]^2/(1 + |x|^2)", 1.0, 1.2),
            bump(3.0, 0.5)),
        "stretched": BigJumpStretchedExp(bump(1.0, 0.3), 1.0,
                                         bump(0.75, 0.25)),
        "hunt": HuntDifference(bump(1.0, 0.3), coeffs.from_source(
            "0.5 + 2*clamp(r, 0, 1)", 0.5, 2.5)),
        "atoms": CompoundPoissonAtoms(atoms),
    }
    for name, comp in families.items():
        yield f"{name}-bare-d{d}", comp
        if not comp.atomic:
            for pname, predicate in PREDICATES.items():
                pred = predicate()
                cone = ConeRestriction(comp, pred, symmetric=pred.symmetric)
                yield f"{name}-{pname}-d{d}", cone


# SHA-256 of run_all(...).to_text() for each kernel above, recorded
# before the family checks shared one grid sweep (the Hunt reports after
# the Hunt check moved onto HuntDifference.radial_integral)
PINNED_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "pinned_reports.json").read_text())


class TestPinnedReports:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_report_text(self, d):
        # spacing 0.5, the largest pair radius, so that the moduli of
        # continuity are not all zero
        grid = default_grid(d, 2.0 if d == 1 else 0.5, 9 if d == 1 else 3)
        seen = set()
        for key, comp in report_kernels(d):
            text = run_all(KernelSpec(d, (comp,)), grid).to_text()
            assert hashlib.sha256(text.encode()).hexdigest() \
                == PINNED_REPORTS[key], key
            seen.add(key)
        assert seen == {k for k in PINNED_REPORTS if k.endswith(f"-d{d}")}
