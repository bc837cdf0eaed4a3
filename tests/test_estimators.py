"""Path-functional estimators: exact integrals, generator action, gates."""

import math

import numpy as np
import pytest

from jumplab import coeffs
from jumplab.errors import RangeError
from jumplab.estimators import (
    EE,
    TEST_FUNCTIONS,
    apply_generator,
    generator_martingale_test,
    lil_statistics,
    martingale_series,
    martingale_test,
    predictable_integral,
    qv_comparison,
    second_moment_identity,
)
from jumplab.kernels import CompoundPoissonAtoms, KernelSpec, StableLikeSmall
from jumplab.simulator import (
    Path,
    PathEnsemble,
    SimConfig,
    simulate_ensemble,
    states_at,
)

ATOMS = KernelSpec(1, (CompoundPoissonAtoms(
    ((1.0, (0.5,)), (1.0, (-0.5,)))
),))


def cfg(**kw):
    base = dict(t_end=1.0, epsilon=0.1, base_seed=42)
    base.update(kw)
    return SimConfig(**base)


def hand_path(times, zs, t_end=1.0):
    times = np.asarray(times, dtype=float)
    zs = np.asarray(zs, dtype=float).reshape(len(times), -1)
    return Path(np.zeros(zs.shape[1] if len(zs) else 1), t_end, times, zs,
                0.0, (0, 0), 0.1)


class TestPredictableIntegral:
    def test_constant_function(self):
        p = hand_path([0.25, 0.5], [[1.0], [1.0]])
        val = predictable_integral(p, lambda x: 3.0, 1.0)
        assert val == pytest.approx(3.0, rel=1e-12)

    def test_constant_shortcut_matches(self):
        p = hand_path([0.25, 0.5], [[1.0], [1.0]])
        assert predictable_integral(p, None, 0.7, constant_value=3.0) == \
            pytest.approx(2.1, rel=1e-12)

    def test_piecewise_exact(self):
        # x jumps 0 -> 1 at t=0.25, -> 3 at t=0.5; integrate f(x) = x
        p = hand_path([0.25, 0.5], [[1.0], [2.0]])
        f = lambda x: float(x[0])
        # closed form: 0*0.25 + 1*0.25 + 3*0.5 = 1.75
        val = predictable_integral(p, f, 1.0)
        assert val == pytest.approx(1.75, rel=1e-12)

    def test_partial_horizon(self):
        p = hand_path([0.25, 0.5], [[1.0], [2.0]])
        f = lambda x: float(x[0])
        # closed form: up to t=0.4: 0*0.25 + 1*0.15 = 0.15
        assert predictable_integral(p, f, 0.4) == pytest.approx(0.15,
                                                                rel=1e-12)


class TestApplyGenerator:
    def test_constant_function_is_zero(self):
        assert apply_generator(ATOMS, "constant", (0.3,)) == 0.0

    def test_square_on_atoms_exact(self):
        # closed form: sum w ((x+z)^2 - x^2 - 0) with gradient correction
        # for |z| < 1: terms linear in z cancel by symmetry, leaving
        # sum w z^2 = 0.5 at every x
        for x in (0.0, 1.0, -2.5):
            val = apply_generator(ATOMS, "square_first", (x,))
            assert val == pytest.approx(0.5, rel=1e-12)

    def test_sin_at_origin_vanishes_by_symmetry(self):
        val = apply_generator(ATOMS, "sin_first", (0.0,))
        assert abs(val) < 1e-12

    def test_sin_on_atoms_closed_form(self):
        # closed form: L sin(x) = sum w (sin(x+z) - sin(x) - z cos(x))
        #                    = 2 sin(x)(cos(0.5) - 1)
        x = 0.7
        val = apply_generator(ATOMS, "sin_first", (x,))
        expect = 2.0 * math.sin(x) * (math.cos(0.5) - 1.0)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_square_on_stable_like(self):
        # closed form: L x^2 = int z^2 N(dz) = 2 for c=1, alpha=1
        k = KernelSpec(1, (StableLikeSmall(coeffs.constant(1.0),
                                           coeffs.constant(1.0)),))
        val = apply_generator(k, "square_first", (0.0,))
        assert val == pytest.approx(2.0, rel=1e-6)


class TestMartingale:
    def setup_method(self):
        self.ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 4000)

    def test_symmetric_kernel_passes(self):
        rep = martingale_test(self.ens, 1.0)
        assert rep.passed
        assert rep.n_paths == 4000

    def test_shifted_ensemble_fails(self):
        shifted = PathEnsemble(
            self.ens.config, self.ens.kernel_label,
            [Path(p.x0, p.t_end, p.jump_times,
                  p.jump_vectors + 0.05, p.dropped_variance_fraction,
                  p.seed, p.epsilon) for p in self.ens.paths],
        )
        rep = martingale_test(shifted, 1.0)
        assert not rep.passed


ATOMS_2D = KernelSpec(2, (CompoundPoissonAtoms(
    ((1.0, (0.5, 0.0)), (1.0, (-0.5, 0.0)),
     (0.5, (0.3, 0.4)), (0.5, (-0.3, -0.4)))
),))


def martingale_by_loop(ens, t):
    """The per-time reduction, one pass over the paths for ``t`` alone."""
    deltas = np.array([states_at(p, [t])[0] - p.x0 for p in ens.paths])
    mean = deltas.mean(axis=0)
    se = deltas.std(axis=0, ddof=1) / math.sqrt(len(deltas))
    z = np.where(se > 0, mean / np.where(se > 0, se, 1.0), 0.0)
    return mean, se, z


class TestMartingaleSeries:
    @pytest.mark.parametrize("kernel,x0", [
        (ATOMS, (0.0,)), (ATOMS_2D, (1.0, -2.0)),
    ])
    def test_matches_one_time_at_a_time(self, kernel, x0):
        ens = simulate_ensemble(kernel, x0, cfg(t_end=0.5), 300)
        assert any(p.n_jumps == 0 for p in ens.paths)
        first_jump = next(p.jump_times[0] for p in ens.paths if p.n_jumps)
        ts = [0.0, 0.05, first_jump, 0.25, 0.3, 0.5]
        series = martingale_series(ens, ts)
        assert [r.t for r in series] == ts
        for t, rep in zip(ts, series):
            single = martingale_test(ens, t)
            mean, se, z = martingale_by_loop(ens, t)
            for got in (rep, single):
                assert got.n_paths == 300
                assert np.array_equal(got.mean, mean)
                assert np.array_equal(got.se, se)
                assert np.array_equal(got.z_scores, z)

    def test_empty_ensemble_raises(self):
        ens = PathEnsemble(cfg(), "empty", ())
        with pytest.raises(ValueError):
            martingale_series(ens, [0.5, 1.0])
        with pytest.raises(ValueError):
            martingale_test(ens, 1.0)

    def test_time_beyond_horizon_raises(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 5)
        with pytest.raises(RangeError):
            martingale_series(ens, [0.5, 1.5])


class TestMomentIdentity:
    def test_atoms(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 4000)
        rep = second_moment_identity(ens, ATOMS, 1.0)
        # closed form: predictable side is exactly 0.5 * t
        assert rep.rhs[0] == pytest.approx(0.5, rel=1e-12)
        assert abs(rep.lhs[0] - rep.rhs[0]) <= 3.0 * rep.lhs_se[0]


class TestQV:
    def test_atoms_pass(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 3000)
        rep = qv_comparison(ens, ATOMS, 1.0)
        assert rep.passed
        assert rep.predictable_mean[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_doubled_atoms_quadruple_qv(self):
        doubled = KernelSpec(1, (CompoundPoissonAtoms(
            ((1.0, (1.0,)), (1.0, (-1.0,)))
        ),))
        e1 = simulate_ensemble(ATOMS, (0.0,), cfg(), 200)
        e2 = simulate_ensemble(doubled, (0.0,), cfg(), 200)
        r1 = qv_comparison(e1, ATOMS, 1.0)
        r2 = qv_comparison(e2, doubled, 1.0)
        # same seeds, same accept/reject draws: exact factor 4
        assert r2.realized_mean[0, 0] == pytest.approx(
            4.0 * r1.realized_mean[0, 0], rel=1e-12
        )
        assert r2.predictable_mean[0, 0] == pytest.approx(
            4.0 * r1.predictable_mean[0, 0], rel=1e-12
        )

    @pytest.mark.parametrize("kernel", [ATOMS, KernelSpec(1, (StableLikeSmall(
        coeffs.inverse_quadratic_bump(1.0, 1.0), coeffs.constant(1.0)),))],
        ids=["state_independent", "state_dependent"])
    def test_time_beyond_horizon_raises(self, kernel):
        # past t_end the realized side stops while the predictable side
        # would go on: a verdict there compares different horizons
        ens = simulate_ensemble(kernel, (0.0,), cfg(), 5)
        with pytest.raises(RangeError):
            qv_comparison(ens, kernel, 2.0)


def integrated_a_by_loop(kernel, path, t):
    """``int_0^t a(X_s) ds`` summed state by state with
    ``diffusion_matrix``."""
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    starts = np.concatenate([[0.0], path.jump_times[:k]])
    ends = np.concatenate([path.jump_times[:k], [t]])
    x = path.x0.copy()
    total = np.zeros((kernel.d, kernel.d))
    for j, (s, e) in enumerate(zip(starts, ends)):
        if j:
            x = x + path.jump_vectors[j - 1]
        total += (e - s) * kernel.diffusion_matrix(x).a
    return total


# state-dependent and not isotropic: a(x) has off-diagonal entries
MIXED_2D = KernelSpec(2, (
    StableLikeSmall(coeffs.inverse_quadratic_bump(1.0, 1.0),
                    coeffs.constant(1.0)),
    ATOMS_2D.components[0],
))


class TestIntegratedA:
    def test_atoms_off_diagonal_exact(self):
        # closed form: predictable side t * sum w z z^T, a_12 = 0.12
        ens = simulate_ensemble(ATOMS_2D, (0.0, 0.0), cfg(t_end=0.5), 200)
        rep = qv_comparison(ens, ATOMS_2D, 0.5)
        a = sum(w * np.outer(z, z) for w, z in ATOMS_2D.components[0].atoms)
        assert a[0, 1] == pytest.approx(0.12, rel=1e-12)
        for i in range(2):
            for j in range(2):
                assert rep.predictable_mean[i, j] == pytest.approx(
                    0.5 * a[i, j], rel=1e-14)

    def test_state_dependent_matches_loop(self):
        ens = simulate_ensemble(MIXED_2D, (0.3, -0.2),
                                cfg(t_end=0.5, epsilon=0.2), 12)
        assert sum(p.n_jumps for p in ens.paths) > 50
        for t in (0.5, 0.3):
            want = np.mean([integrated_a_by_loop(MIXED_2D, p, t)
                            for p in ens.paths], axis=0)
            assert abs(want[0, 1]) > 1e-3
            qv = qv_comparison(ens, MIXED_2D, t)
            np.testing.assert_allclose(qv.predictable_mean, want, rtol=1e-12)
            moment = second_moment_identity(ens, MIXED_2D, t)
            np.testing.assert_allclose(moment.rhs, np.diag(want),
                                       rtol=1e-12)

    def test_lil_matches_predictable_integral(self):
        c = coeffs.inverse_quadratic_bump(1.0, 1.0)
        k = KernelSpec(1, (StableLikeSmall(c, coeffs.constant(1.0)),))
        ens = simulate_ensemble(k, (0.0,), cfg(t_end=64.0, epsilon=0.2), 4)
        cps = [16.0, 40.0, 64.0]
        rep = lil_statistics(ens, (-1.0,), cps, 1.0, 1.0, kernel=k)
        assert not rep.degenerate
        a11 = lambda x: float(k.diffusion_matrix(x).a[0, 0])
        for p, w in zip(ens.paths, rep.directional):
            qv = np.array([predictable_integral(p, a11, t) for t in cps])
            proj = -states_at(p, cps)[:, 0]
            want = proj / np.sqrt(2.0 * qv * np.log(np.log(qv)))
            np.testing.assert_allclose(w, want, rtol=1e-12)


class TestGeneratorMartingale:
    def setup_method(self):
        self.ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 2000)

    def test_constant_function_exact_zero(self):
        rep = generator_martingale_test(self.ens, ATOMS, "constant", 1.0)
        assert rep.mean == 0.0
        assert rep.z_score == 0.0
        assert rep.passed

    def test_sin_passes(self):
        rep = generator_martingale_test(self.ens, ATOMS, "sin_first", 1.0)
        assert rep.passed

    def test_square_passes(self):
        rep = generator_martingale_test(self.ens, ATOMS, "square_first", 1.0)
        assert rep.passed


class TestLil:
    def test_checkpoints_below_ee_rejected(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(t_end=20.0), 3)
        with pytest.raises(RangeError):
            lil_statistics(ens, (1.0,), [10.0, 20.0], 0.5, 0.5)

    def test_statistics_shape_and_band(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(t_end=64.0), 10)
        cps = [16.0, 32.0, 64.0]
        rep = lil_statistics(ens, (1.0,), cps, 0.5, 0.5, kernel=ATOMS)
        assert rep.directional.shape == (10, 3)
        assert rep.radial.shape == (10, 3)
        assert rep.band == (math.sqrt(0.5), math.sqrt(0.5))
        assert not rep.degenerate
        assert np.all(rep.running_max_directional >= 0.0)

    def test_kernel_and_fallback_agree_for_constant_rate(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(t_end=64.0), 5)
        cps = [16.0, 64.0]
        with_k = lil_statistics(ens, (1.0,), cps, 0.5, 0.5, kernel=ATOMS)
        without = lil_statistics(ens, (1.0,), cps, 0.5, 0.5)
        assert np.allclose(with_k.directional, without.directional)

    def test_ee_constant(self):
        assert EE == pytest.approx(math.e**math.e)


class TestTestFunctions:
    def test_gradients_match_finite_differences(self):
        h = 1e-6
        x = np.array([0.37])
        for name, fn in TEST_FUNCTIONS.items():
            g = np.asarray(fn.grad(x), dtype=float)
            fd = (fn.u(x + h) - fn.u(x - h)) / (2 * h)
            assert g[0] == pytest.approx(fd, abs=1e-6)
