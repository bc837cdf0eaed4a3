"""Path-functional estimators: exact integrals, generator action, gates."""

import collections
import hashlib
import math

import numpy as np
import pytest

from jumplab import coeffs, estimators, exprlang
from jumplab.config import FirstCoordinatePositive
from jumplab.errors import RangeError
from jumplab.estimators import (
    EE,
    TEST_FUNCTIONS,
    apply_generator,
    generator_martingale_test,
    generator_reduction,
    lil_reduction,
    lil_statistics,
    martingale_reduction,
    martingale_series,
    martingale_test,
    moment_identity_reduction,
    predictable_integral,
    qv_comparison,
    qv_reduction,
    second_moment_identity,
)
from jumplab.kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    CompoundPoissonAtoms,
    ConeRestriction,
    KernelSpec,
    StableLikeSmall,
)
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

    @pytest.mark.parametrize("t", [5.0, -1.0])
    @pytest.mark.parametrize("constant_value", [None, 1.0])
    def test_time_outside_the_path_raises(self, t, constant_value):
        # the path holds no states outside [0, t_end = 1]
        p = hand_path([0.25, 0.5], [[1.0], [2.0]])
        with pytest.raises(RangeError):
            predictable_integral(p, lambda x: 1.0, t, constant_value)


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


def _stable():
    return StableLikeSmall(
        coeffs.from_source("1 + 1/(1 + |x|^2)", 1.0, 2.0),
        coeffs.from_source("0.5 + 0.3/(1 + |x|^2)", 0.5, 0.8))


def _power():
    return BigJumpPowerLaw(
        coeffs.from_source("0.5 + 0.5/(1 + |x|^2)", 0.5, 1.0),
        coeffs.constant(3.0))


def _stretched():
    return BigJumpStretchedExp(
        coeffs.from_source("1 + 1/(1 + |x|^2)", 1.0, 2.0), 1.0,
        coeffs.from_source("1 + 0.5/(1 + |x|^2)", 1.0, 1.5))


PINNED_KERNELS = {
    "stable": lambda: (_stable(),),
    "stable_power": lambda: (_stable(), _power()),
    "stretched": lambda: (_stretched(),),
    "cone": lambda: (ConeRestriction(_stable(), FirstCoordinatePositive()),),
}

# Lu(x) recorded as float.hex before the density components shared one
# sphere-node loop; the cases where that code raised DivergenceDetected
# (the cancellation of u(x+z) - u(x) - grad u . z near z = 0) are left out
PINNED_GENERATOR = {
    ("stable", "sin_first", (0.0,)): "0x0.0p+0",
    ("stable", "sin_first", (0.7,)): "-0x1.9ace04c316be7p-1",
    ("stable", "cos_first", (0.0,)): "-0x1.9d9a748732777p+0",
    ("stable", "cos_first", (0.7,)): "-0x1.e7b97f2184863p-1",
    ("stable", "square_first", (0.0,)): "0x1.aaaaaaa7c3cc0p+1",
    ("stable", "square_first", (0.7,)): "0x1.496d25b24d3bfp+1",
    ("stable", "square_first", (0.3, -0.4)): "0x1.1f3b3853b92b6p+2",
    ("stable", "square_first", (0.2, 0.1, -0.3)): "0x1.96e08966911b5p+2",
    ("stable_power", "sin_first", (0.0,)): "0x0.0p+0",
    ("stable_power", "sin_first", (0.7,)): "-0x1.1a68a16f4de4ep+0",
    ("stable_power", "cos_first", (0.0,)): "-0x1.16549759b6697p+1",
    ("stable_power", "cos_first", (0.7,)): "-0x1.4f4995c17ce2fp+0",
    ("stable_power", "square_first", (0.0,)): "0x1.55555551e1e60p+2",
    ("stable_power", "square_first", (0.7,)): "0x1.0faa8bf8c02c9p+2",
    ("stable_power", "square_first", (0.3, -0.4)): "0x1.d42fe37d1cc44p+2",
    ("stable_power", "square_first", (0.2, 0.1, -0.3)): "0x1.493fcd800e3c7p+3",
    ("stretched", "sin_first", (0.0,)): "0x0.0p+0",
    ("stretched", "sin_first", (0.7,)): "-0x1.019d8d5d37696p-1",
    ("stretched", "cos_first", (0.0,)): "-0x1.7864fb401dd72p-1",
    ("stretched", "cos_first", (0.7,)): "-0x1.31da11331cb87p-1",
    ("stretched", "square_first", (0.0,)): "0x1.f6472f2e6944bp+0",
    ("stretched", "square_first", (0.7,)): "0x1.20db6df65f5ccp+1",
    ("stretched", "sin_first", (0.3, -0.4)): "-0x1.629ac8f56ddf8p-1",
    ("stretched", "cos_first", (0.3, -0.4)): "-0x1.1e95c884e0030p+1",
    ("stretched", "square_first", (0.3, -0.4)): "0x1.9afb3ab00b747p+2",
    ("stretched", "sin_first", (0.2, 0.1, -0.3)): "-0x1.410e3b75f87c3p+0",
    ("stretched", "cos_first", (0.2, 0.1, -0.3)): "-0x1.8bf4494860f07p+2",
    ("stretched", "square_first", (0.2, 0.1, -0.3)): "0x1.0f2e92d325935p+4",
    ("cone", "sin_first", (0.0, 0.0)): "-0x1.952fd8dba1197p-3",
    ("cone", "sin_first", (0.5, -1.0)): "-0x1.02514e2bd6dc6p-1",
    ("cone", "cos_first", (0.0, 0.0)): "-0x1.4761c9edecca5p+0",
    ("cone", "square_first", (0.0, 0.0)): "0x1.4f1a6c614590dp+1",
    ("cone", "square_first", (0.5, -1.0)): "0x1.a9024b052ad07p+0",
}


class TestPinnedGenerator:
    @pytest.mark.parametrize("kernel, fn, x", list(PINNED_GENERATOR))
    def test_pinned(self, kernel, fn, x):
        k = KernelSpec(len(x), PINNED_KERNELS[kernel]())
        got = apply_generator(k, fn, x)
        want = float.fromhex(PINNED_GENERATOR[kernel, fn, x])
        if len(x) == 1:
            assert got.hex() == want.hex()
        else:
            # in d > 1 the radial profile is taken at r, not at |r theta|,
            # which may differ in the last bit
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_each_coefficient_evaluated_once(self, monkeypatch):
        k = KernelSpec(1, (StableLikeSmall(
            coeffs.from_source("1 + 1/(1 + |x|^2)", 1.0, 2.0),
            coeffs.constant(1.0)),))
        calls = collections.Counter()
        evaluate = exprlang.evaluate

        def counting(expr, x):
            calls[id(expr)] += 1
            return evaluate(expr, x)

        monkeypatch.setattr(exprlang, "evaluate", counting)
        apply_generator(k, "square_first", (0.5,))
        assert len(calls) == 2
        assert max(calls.values()) == 1


class TestMartingale:
    def setup_method(self):
        self.ens = simulate_ensemble(ATOMS, (0.0,), cfg(), 4000)

    def test_symmetric_kernel_passes(self):
        rep = martingale_test(self.ens, 1.0)
        assert rep.passed
        assert rep.n_paths == 4000

    def test_shifted_ensemble_fails(self):
        shifted = PathEnsemble(
            self.ens.config,
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
        ens = PathEnsemble(cfg(), ())
        with pytest.raises(ValueError):
            martingale_series(ens, [0.5, 1.0])
        with pytest.raises(ValueError):
            martingale_test(ens, 1.0)
        # the time integral behind the other gates refuses it too
        with pytest.raises(ValueError):
            qv_comparison(ens, ATOMS, 1.0)
        with pytest.raises(ValueError):
            generator_martingale_test(ens, ATOMS, "sin_first", 1.0)

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
        rep = lil_statistics(ens, (-1.0,), cps, kernel=k)
        assert not rep.degenerate
        a11 = lambda x: float(k.diffusion_matrix(x).a[0, 0])
        for p, w in zip(ens.paths, rep.directional):
            qv = np.array([predictable_integral(p, a11, t) for t in cps])
            proj = -states_at(p, cps)[:, 0]
            want = proj / np.sqrt(2.0 * qv * np.log(np.log(qv)))
            np.testing.assert_allclose(w, want, rtol=1e-12)


def _digest(values):
    data = np.asarray(values, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


# state-dependent, with a zero-mean atomic part
PIN_1D = KernelSpec(1, (
    StableLikeSmall(coeffs.inverse_quadratic_bump(1.0, 1.0),
                    coeffs.constant(0.5)),
    CompoundPoissonAtoms(((0.5, (0.6,)), (0.25, (-0.8,)), (0.25, (-0.4,)))),
))

# SHA-256 of the float64 bytes of each estimate, recorded before the
# estimators shared one time integral and one z-test
PINNED_ESTIMATES = {
    "1d": {
        "qv.predictable_mean@40.0":
            "38fd3caf4625b636a8eeb44b93e48ec2685aaeac5bb419ebdac08ef8ce433370",
        "qv.z_scores@40.0":
            "c6e5a480f19adb62eed540bd7b13e195682de278de539157e8431f8dc259fa5c",
        "moment.rhs@40.0":
            "38fd3caf4625b636a8eeb44b93e48ec2685aaeac5bb419ebdac08ef8ce433370",
        "predictable_integral@40.0":
            "bffdf8ae7dac1e5942f39f33003c8aab083ba84a4a71c44da7c839afb5d390a7",
        "qv.predictable_mean@21.5":
            "22a70a88efa66c2f5c24fa4d797bd58b7b5cc56afb86996e423526af3f6e228c",
        "qv.z_scores@21.5":
            "b3b551f2b01e5883c30d0cd5d1c7a1f308ebb0bce5afc549b77b704217e4458a",
        "moment.rhs@21.5":
            "22a70a88efa66c2f5c24fa4d797bd58b7b5cc56afb86996e423526af3f6e228c",
        "predictable_integral@21.5":
            "9d404ed42ee17964deac6a8f6ddc105ff40b625c3d25fb3b97a023c76d7f2479",
        "generator@21.5":
            "89b13b6fbecb3c7708f8fb9a69a4bfb26b9b249932dfcc89d6d9e3eee9c2267b",
        "lil":
            "e3303070735ea2186a065c1e91544df09472b0ca9668389fafa72554cec977ac",
    },
    "2d": {
        "qv.predictable_mean@20.0":
            "27386f23d2ee0076b5ebc17029245889a12c98ea9e341de0be3ada48edaab0c1",
        "qv.z_scores@20.0":
            "758b2b3a99730084a5e3794461b463f8cccbc95b5d1a32ab3941fed99bc8c884",
        "moment.rhs@20.0":
            "6a7bd2b9cbcc94b22177279220578559dedcab936119077054c5e0c3c24bbdbe",
        "qv.predictable_mean@10.5":
            "677e60c5ef63dfa8514e2977738c7cbde228fb35490264ddacac39fe2a118fcc",
        "qv.z_scores@10.5":
            "de587b3167d93fb4a0adc6c56b21a368fc03001dd8c94c581a5ec9a72b513eac",
        "moment.rhs@10.5":
            "56bd28a97dcdcbddf26ac235fe938c6f1d2d8d02dfbee138a58cca94da16c1c3",
        "lil":
            "b5b6e76221bb9a06dadee73bf6e574ce8fedf36f09ddbb1f2307c2d783a419e3",
    },
}


class TestPinnedEstimators:
    # MIXED_2D has no generator pin: apply_generator raises in 2-d for
    # its stable-like part
    @pytest.mark.parametrize("name, kernel, x0, t_end, times, checkpoints", [
        ("1d", PIN_1D, (0.0,), 40.0, (40.0, 21.5), (16.0, 32.0, 40.0)),
        ("2d", MIXED_2D, (0.3, -0.2), 20.0, (20.0, 10.5), (16.0, 20.0)),
    ], ids=["1d", "2d"])
    def test_pinned(self, name, kernel, x0, t_end, times, checkpoints):
        ens = simulate_ensemble(kernel, x0, cfg(t_end=t_end, epsilon=0.2),
                                12)
        got = {}
        for t in times:
            qv = qv_comparison(ens, kernel, t)
            got[f"qv.predictable_mean@{t}"] = _digest(qv.predictable_mean)
            got[f"qv.z_scores@{t}"] = _digest(qv.z_scores)
            got[f"moment.rhs@{t}"] = _digest(
                second_moment_identity(ens, kernel, t).rhs)
            if kernel.d == 1:
                a11 = lambda x: float(kernel.diffusion_matrix(x).a[0, 0])
                got[f"predictable_integral@{t}"] = _digest(
                    [predictable_integral(p, a11, t) for p in ens.paths])
        if kernel.d == 1:
            g = generator_martingale_test(ens, kernel, "cos_first", 21.5)
            got["generator@21.5"] = _digest([g.mean, g.se, g.z_score])
        lil = lil_statistics(ens, (1.0,) * kernel.d, checkpoints, kernel)
        assert not lil.degenerate
        got["lil"] = _digest(np.concatenate([
            lil.directional.ravel(), lil.radial.ravel(),
            lil.running_max_directional, lil.running_max_radial]))
        assert got == PINNED_ESTIMATES[name]


def _bits(report):
    """Every field of a report, or of a list of reports, as bytes."""
    if isinstance(report, list):
        return [_bits(r) for r in report]
    return {name: np.asarray(value).tobytes()
            for name, value in vars(report).items()}


class TestBlocks:
    # a reduction fed an ensemble in blocks of 1, 3 or all 12 consecutive
    # paths gives the one-shot function's report bit for bit
    @pytest.mark.parametrize("kernel, x0, t_end, t, checkpoints", [
        (PIN_1D, (0.0,), 40.0, 21.5, (16.0, 32.0, 40.0)),
        (MIXED_2D, (0.3, -0.2), 20.0, 10.5, (16.0, 20.0)),
    ], ids=["1d", "2d"])
    def test_blocks_give_the_one_shot_report(self, monkeypatch, kernel, x0,
                                             t_end, t, checkpoints):
        ens = simulate_ensemble(kernel, x0, cfg(t_end=t_end, epsilon=0.2),
                                12)
        times = [1.0, t, t_end]
        direction = (1.0,) * kernel.d
        cases = [
            (lambda: martingale_reduction(times),
             martingale_series(ens, times)),
            (lambda: qv_reduction(kernel, t), qv_comparison(ens, kernel, t)),
            (lambda: moment_identity_reduction(kernel, t),
             second_moment_identity(ens, kernel, t)),
            (lambda: lil_reduction(direction, checkpoints, kernel),
             lil_statistics(ens, direction, checkpoints, kernel)),
        ]
        calls = collections.Counter()
        if kernel.d == 1:
            # MIXED_2D's stable-like part has no generator in 2-d
            apply = estimators.apply_generator

            def counted(*args):
                calls["Lu"] += 1
                return apply(*args)

            monkeypatch.setattr(estimators, "apply_generator", counted)
            # a short time: each new state costs a quadrature
            cases.append((lambda: generator_reduction(kernel, "cos_first", 3.0),
                          generator_martingale_test(ens, kernel, "cos_first",
                                                    3.0)))
        one_shot_calls = calls["Lu"]
        for size in (1, 3, 12):
            for reduction, want in cases:
                reduction = reduction()
                for start in range(0, 12, size):
                    reduction.feed(ens.paths[start:start + size])
                assert _bits(reduction.result()) == _bits(want), size
        # the generator's cache of Lu spans the blocks
        assert calls["Lu"] == 4 * one_shot_calls


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
            lil_statistics(ens, (1.0,), [10.0, 20.0], kernel=ATOMS)

    def test_statistics_shape_and_band(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(t_end=64.0), 10)
        cps = [16.0, 32.0, 64.0]
        rep = lil_statistics(ens, (1.0,), cps, kernel=ATOMS)
        assert rep.directional.shape == (10, 3)
        assert rep.radial.shape == (10, 3)
        assert not rep.degenerate
        assert np.all(rep.running_max_directional >= 0.0)

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
