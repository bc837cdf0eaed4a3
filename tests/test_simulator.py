"""Thinning simulator: determinism, distributional checks, serialization."""

import io
import logging
import math

import numpy as np
import pytest

from jumplab import coeffs
from jumplab.errors import JumpCapExceeded, RangeError
from jumplab.kernels import (
    BigJumpPowerLaw,
    CompoundPoissonAtoms,
    ConeRestriction,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
)
from jumplab.simulator import (
    SimConfig,
    ThinningSimulator,
    auto_epsilon,
    read_path_csv,
    sample_compound_poisson_direct,
    simulate_ensemble,
    simulate_path,
    state_at,
    states_at,
    write_path_csv,
)

ATOMS = KernelSpec(1, (CompoundPoissonAtoms(
    ((1.0, (0.5,)), (1.0, (-0.5,)))
),))


def stable_kernel(c=1.0, alpha=1.0, d=1):
    return KernelSpec(d, (
        StableLikeSmall(coeffs.constant(c), coeffs.constant(alpha)),
    ))


def cfg(**kw):
    base = dict(t_end=1.0, epsilon=0.1, base_seed=1234)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            cfg(epsilon=0.0)
        with pytest.raises(ValueError):
            cfg(epsilon=1.0)

    def test_margin_bound(self):
        with pytest.raises(ValueError):
            cfg(dominating_rate_margin=0.9)


class TestDeterminism:
    def test_same_seed_same_path(self):
        p1 = simulate_path(ATOMS, (0.0,), cfg(), path_index=3)
        p2 = simulate_path(ATOMS, (0.0,), cfg(), path_index=3)
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.jump_vectors, p2.jump_vectors)

    def test_different_path_index_differs(self):
        p1 = simulate_path(ATOMS, (0.0,), cfg(t_end=10.0), path_index=0)
        p2 = simulate_path(ATOMS, (0.0,), cfg(t_end=10.0), path_index=1)
        assert not np.array_equal(p1.jump_times, p2.jump_times)

    def test_path_independent_of_ensemble_size(self):
        e_small = simulate_ensemble(ATOMS, (0.0,), cfg(), 3)
        e_large = simulate_ensemble(ATOMS, (0.0,), cfg(), 7)
        for a, b in zip(e_small.paths, e_large.paths[:3]):
            assert np.array_equal(a.jump_times, b.jump_times)
            assert np.array_equal(a.jump_vectors, b.jump_vectors)

    def test_state_independent_draw_order(self):
        # The frozen LIL band was calibrated on this stream: rebuild atom
        # paths by hand from the (seed, path) Philox substream, drawing
        # Poisson count, times, acceptance uniforms, atom indices and
        # filler uniforms in that order, and require identical bytes.
        atoms = [(1.0, 0.5), (1.0, -0.5)]
        weights = np.array([w for w, _ in atoms])
        cdf = weights.cumsum() / weights.sum()
        config = cfg(t_end=10.0, base_seed=4321)
        lam_bar = config.dominating_rate_margin * weights.sum()
        for i in range(5):
            rng = np.random.Generator(
                np.random.Philox(key=[config.base_seed, i])
            )
            n_prop = int(rng.poisson(lam_bar * config.t_end))
            times = np.sort(rng.random(n_prop)) * config.t_end
            accept = rng.random(n_prop) < weights.sum() / lam_bar
            times = times[accept]
            k = len(times)
            ks = cdf.searchsorted(rng.random(k), side="right")
            rng.random(k)  # filler draw
            jumps = np.array([[atoms[j][1]] for j in ks], dtype=float)
            assert k > 0
            p = simulate_path(ATOMS, (0.0,), config, path_index=i)
            assert p.jump_times.tobytes() == times.tobytes()
            assert p.jump_vectors.tobytes() == jumps.tobytes()

    def test_state_dependent_draw_order(self):
        # Rebuild paths of a state-dependent two-component kernel by hand
        # from the (seed, path) Philox substream: exponential gap,
        # acceptance uniform, component uniform, radius uniform, then
        # direction uniform.  The inverse CDFs run on Python floats,
        # because numpy's array power can differ from float ** float in
        # the last bit, and jumps drawn one at a time must not change.
        bump = coeffs.inverse_quadratic_bump(1.0, 0.5)
        small = StableLikeSmall(bump, bump)
        big = BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0))
        kernel = KernelSpec(1, (small, big))
        config = cfg(epsilon=0.05, base_seed=2718)
        eps = config.epsilon
        grid = [(v,) for v in np.linspace(-3.0, 3.0, 13)]
        lam_bar = ThinningSimulator(kernel, config, grid).dominating_rate
        for i in range(4):
            rng = np.random.Generator(
                np.random.Philox(key=[config.base_seed, i])
            )
            t, x = 0.0, np.zeros(1)
            times, jumps = [], []
            while True:
                t += rng.exponential(1.0 / lam_bar)
                if t > config.t_end:
                    break
                rates = [c.tail_mass(x, eps, 1).value for c in (small, big)]
                total = rates[0] + rates[1]
                if rng.random() >= total / lam_bar:
                    continue
                if rng.random() <= rates[0] / total:
                    a = small.alpha(x)
                    lo = eps ** (-a)
                    r = (lo - rng.random() * (lo - 1.0)) ** (-1.0 / a)
                else:
                    r = (1.0 - rng.random()) ** (-1.0 / big.beta1(x))
                z = r * (-1.0 if rng.random() < 0.5 else 1.0)
                times.append(t)
                jumps.append([z])
                x = x + z
            assert len(times) > 50
            p = simulate_path(kernel, (0.0,), config, path_index=i,
                              rate_grid=grid)
            assert np.array_equal(p.jump_times, np.array(times))
            assert np.array_equal(p.jump_vectors, np.array(jumps))

    def test_jobs_do_not_change_results(self):
        e1 = simulate_ensemble(ATOMS, (0.0,), cfg(), 20, jobs=1)
        e4 = simulate_ensemble(ATOMS, (0.0,), cfg(), 20, jobs=4)
        for a, b in zip(e1.paths, e4.paths):
            assert np.array_equal(a.jump_times, b.jump_times)
            assert np.array_equal(a.jump_vectors, b.jump_vectors)

    def test_jobs_keep_the_rate_grid(self):
        # c rises towards 1.5 away from the origin, so a grid point far
        # outside the default grid raises the dominating rate
        k = KernelSpec(1, (StableLikeSmall(
            coeffs.from_source("1.5 - 0.5/(1 + |x|^2)", 1.0, 1.5),
            coeffs.constant(1.0),
        ),))
        grid = [(0.0,), (100.0,)]
        e1 = simulate_ensemble(k, (0.0,), cfg(), 6, jobs=1, rate_grid=grid)
        e2 = simulate_ensemble(k, (0.0,), cfg(), 6, jobs=2, rate_grid=grid)
        for a, b in zip(e1.paths, e2.paths):
            assert a.jump_times.tobytes() == b.jump_times.tobytes()
            assert a.jump_vectors.tobytes() == b.jump_vectors.tobytes()

    def test_unpicklable_simulator_warns_and_runs_serially(self, caplog):
        k = KernelSpec(2, (ConeRestriction(
            BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
            lambda z: z[0] > 0.0,
        ),))
        config = cfg(t_end=3.0)
        e1 = simulate_ensemble(k, (0.0, 0.0), config, 6, jobs=1)
        with caplog.at_level(logging.WARNING, logger="jumplab"):
            e2 = simulate_ensemble(k, (0.0, 0.0), config, 6, jobs=2)
        [record] = caplog.records
        assert record.name == "jumplab"
        # the message says what happened and names the unpicklable object
        assert "serially" in record.getMessage()
        assert "<lambda>" in record.getMessage()
        for a, b in zip(e1.paths, e2.paths):
            assert a.jump_times.tobytes() == b.jump_times.tobytes()
            assert a.jump_vectors.tobytes() == b.jump_vectors.tobytes()
        # a picklable simulator goes to the workers without a warning
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="jumplab"):
            simulate_ensemble(ATOMS, (0.0,), cfg(), 4, jobs=2)
        assert not caplog.records


def right_half_plane(z):
    return z[0] > 0.0


class TestCone:
    def test_state_independent_cone_simulates(self):
        k = KernelSpec(2, (ConeRestriction(
            BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
            right_half_plane,
        ),))
        config = cfg(t_end=5.0)
        ens = simulate_ensemble(k, (0.0, 0.0), config, 20)
        zs = np.concatenate([p.jump_vectors for p in ens.paths])
        assert len(zs) > 0
        assert all(right_half_plane(z) for z in zs)
        assert np.all(np.linalg.norm(zs, axis=1) >= config.epsilon)


class TestPathAccess:
    def test_state_at_is_cadlag(self):
        p = simulate_path(ATOMS, (0.0,), cfg(t_end=5.0))
        if p.n_jumps:
            t0 = p.jump_times[0]
            before = state_at(p, t0 * 0.999999)
            at = state_at(p, t0)
            assert not np.array_equal(before, at)

    def test_time_out_of_range(self):
        p = simulate_path(ATOMS, (0.0,), cfg())
        with pytest.raises(RangeError):
            state_at(p, -0.1)
        with pytest.raises(RangeError):
            state_at(p, 1.5)

    def test_states_at_matches_state_at(self):
        p = simulate_path(ATOMS, (0.0,), cfg(t_end=5.0))
        times = [0.0, 1.0, 2.5, 5.0]
        xs = states_at(p, times)
        for t, x in zip(times, xs):
            assert np.array_equal(x, state_at(p, t))


class TestDistribution:
    def test_jump_count_is_poisson(self):
        # total rate 2, t = 1: counts ~ Poisson(2)
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(base_seed=99), 4000)
        counts = np.array([p.n_jumps for p in ens.paths])
        assert counts.mean() == pytest.approx(2.0, abs=4 * math.sqrt(
            2.0 / 4000
        ))
        assert counts.var(ddof=1) == pytest.approx(2.0, rel=0.15)

    def test_atom_selection_balanced(self):
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(base_seed=7), 2000)
        zs = np.concatenate([p.jump_vectors[:, 0] for p in ens.paths])
        assert set(np.unique(zs)) == {-0.5, 0.5}
        frac = np.mean(zs > 0)
        assert frac == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(len(zs)))

    def test_matches_direct_sampler(self):
        # endpoint distributions agree between thinning and direct sums
        n = 3000
        ens = simulate_ensemble(ATOMS, (0.0,), cfg(base_seed=3), n)
        thinned = np.array([state_at(p, 1.0)[0] for p in ens.paths])
        direct = np.array([
            state_at(
                sample_compound_poisson_direct(ATOMS, (0.0,), 1.0, 555, k),
                1.0,
            )[0]
            for k in range(n)
        ])
        # same lattice and close moments
        assert thinned.mean() == pytest.approx(direct.mean(), abs=0.06)
        assert thinned.var() == pytest.approx(direct.var(), rel=0.15)

    def test_stable_like_rate_matches_tail_mass(self):
        k = stable_kernel()
        eps = 0.1
        expect = k.total_mass_tail((0.0,), eps).value  # 2*(10-1) = 18
        assert expect == pytest.approx(18.0, rel=1e-8)
        ens = simulate_ensemble(k, (0.0,), cfg(epsilon=eps, base_seed=11),
                                1500)
        counts = np.array([p.n_jumps for p in ens.paths])
        assert counts.mean() == pytest.approx(expect, rel=0.05)

    def test_hunt_radial_alpha_is_state_independent(self):
        # alpha_r depends on r = |z| only, so with a constant c neither the
        # rate nor the radial law depends on the state
        k = KernelSpec(1, (HuntDifference(
            coeffs.constant(1.0),
            coeffs.from_source("1 + 2*clamp(r, 0, 1)", 1.0, 3.0),
        ),))
        sim = ThinningSimulator(k, cfg(epsilon=0.1, base_seed=5))
        assert sim.state_independent
        rate = k.total_mass_tail((0.0,), 0.1).value
        n = 300
        counts = np.array([p.n_jumps for p in sim.ensemble((0.0,), n).paths])
        assert counts.mean() == pytest.approx(
            rate, abs=4 * math.sqrt(rate / n))

    def test_stable_like_jump_radius_law(self):
        # radial CDF on [eps, 1): F(r) = (eps^-a - r^-a) / (eps^-a - 1)
        k = stable_kernel(alpha=1.0)
        eps = 0.1
        ens = simulate_ensemble(k, (0.0,), cfg(epsilon=eps, base_seed=21),
                                400)
        radii = np.concatenate([
            np.abs(p.jump_vectors[:, 0]) for p in ens.paths
        ])
        assert radii.min() >= eps
        assert radii.max() < 1.0
        med = np.median(radii)
        # closed form: F^{-1}(0.5) for alpha=1, eps=0.1: 1/(10 - 0.5*9)
        assert med == pytest.approx(1.0 / 5.5, rel=0.05)


class TestDroppedVariance:
    def test_fraction_recorded(self):
        k = stable_kernel()
        ens = simulate_ensemble(k, (0.0,), cfg(epsilon=0.01, base_seed=5), 5)
        for p in ens.paths:
            # closed form: dropped variance fraction = eps = 0.01 for alpha=1
            assert p.dropped_variance_fraction == pytest.approx(0.01,
                                                                rel=1e-6)
            assert not p.approximate

    def test_gaussian_substitute_marks_approximate(self):
        k = stable_kernel()
        ens = simulate_ensemble(
            k, (0.0,),
            cfg(epsilon=0.1, base_seed=5,
                small_jump_mode="gaussian_substitute"),
            3,
        )
        for p in ens.paths:
            assert p.approximate

    def test_gaussian_substitute_restores_variance(self):
        k = stable_kernel()
        n = 4000
        drop = simulate_ensemble(k, (0.0,), cfg(epsilon=0.3, base_seed=8), n)
        subst = simulate_ensemble(
            k, (0.0,),
            cfg(epsilon=0.3, base_seed=8,
                small_jump_mode="gaussian_substitute"),
            n,
        )
        var_drop = np.var([state_at(p, 1.0)[0] for p in drop.paths])
        var_subst = np.var([state_at(p, 1.0)[0] for p in subst.paths])
        # substitution adds back roughly the dropped 0.6 of variance
        assert var_subst - var_drop == pytest.approx(0.6, rel=0.25)


class TestAutoEpsilon:
    def test_hits_target_fraction(self):
        k = stable_kernel()
        eps = auto_epsilon(k, [(0.0,)], fraction=0.01)
        dropped = k.dropped_variance((0.0,), eps).value
        total = k.second_moment((0.0,)).value
        assert dropped / total <= 0.01 + 1e-9


class TestJumpCap:
    def test_cap_raises_with_partial(self):
        k = stable_kernel()
        with pytest.raises(JumpCapExceeded) as err:
            simulate_path(k, (0.0,), cfg(epsilon=0.001, t_end=100.0,
                                         max_jumps=50))
        assert err.value.partial is not None


class TestCsv:
    def test_round_trip(self):
        p = simulate_path(ATOMS, (0.0,), cfg(t_end=5.0), path_index=2)
        buf = io.StringIO()
        write_path_csv(p, buf)
        buf.seek(0)
        q = read_path_csv(buf)
        assert q.x0 == p.x0
        assert q.t_end == p.t_end
        assert q.epsilon == p.epsilon
        assert q.seed == p.seed
        assert np.array_equal(q.jump_times, p.jump_times)
        assert np.array_equal(q.jump_vectors, p.jump_vectors)

    def test_shortest_round_trip_floats(self):
        p = simulate_path(stable_kernel(), (0.0,), cfg(), path_index=0)
        buf = io.StringIO()
        write_path_csv(p, buf)
        text = buf.getvalue()
        # payload floats are written with repr: re-parsing is exact
        buf.seek(0)
        q = read_path_csv(buf)
        assert np.array_equal(q.jump_vectors, p.jump_vectors)
        assert "jump_time" in text.splitlines()[-p.n_jumps - 1]
