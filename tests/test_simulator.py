"""Thinning simulator: determinism, distributional checks, serialization."""

import io
import logging
import math

import numpy as np
import pytest

from jumplab import coeffs, simulator
from jumplab.config import FirstAxisCone
from jumplab.errors import EnvelopeViolation, JumpCapExceeded, RangeError
from jumplab.estimators import predictable_integral
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

    def test_seed_bounds(self):
        # each path's Philox key is a pair of unsigned 64-bit words
        cfg(base_seed=0)
        cfg(base_seed=2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"base_seed must lie in "
                                                 r"\[0, 2\^64\)"):
                cfg(base_seed=seed)


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
        lam_bar = simulator.DOMINATING_RATE_MARGIN * weights.sum()
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

    def test_start_selects_the_paths(self):
        whole = simulate_ensemble(ATOMS, (0.0,), cfg(), 7)
        sim = ThinningSimulator(ATOMS, cfg())
        part = sim.ensemble((0.0,), 3, start=4)
        assert [p.seed for p in part.paths] == [(1234, 4), (1234, 5), (1234, 6)]
        for a, b in zip(whole.paths[4:], part.paths):
            assert a.jump_times.tobytes() == b.jump_times.tobytes()
            assert a.jump_vectors.tobytes() == b.jump_vectors.tobytes()

    @pytest.mark.parametrize("n_paths, jobs, workers", [
        (6, 64, 6), (6, 4, 4), (2, 3, 2),
    ])
    def test_pool_has_a_worker_per_chunk(self, pool, n_paths, jobs,
                                         workers):
        # the pool forks all its workers at the first submit, so it gets
        # no more workers than chunks
        serial = simulate_ensemble(ATOMS, (0.0,), cfg(), n_paths)
        pooled = simulate_ensemble(ATOMS, (0.0,), cfg(), n_paths, jobs=jobs)
        assert pool == [workers]
        for a, b in zip(serial.paths, pooled.paths, strict=True):
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

    def test_state_dependent_cone_count_is_compensated(self):
        # the kernel, grid and seed of the 2-d cone_validation_2d
        # benchmark config (seed 1): every proposal asks the cone for its
        # tail rate at a new state
        k = KernelSpec(2, (
            StableLikeSmall(coeffs.inverse_quadratic_bump(0.895, 0.592),
                            coeffs.inverse_quadratic_bump(1.0, 0.5)),
            ConeRestriction(BigJumpPowerLaw(
                coeffs.from_source("0.843 + 0.179*x[1]^2/(1 + |x|^2)",
                                   0.843, 1.022),
                coeffs.constant(3.0)), FirstAxisCone(), symmetric=True),
        ))
        config = cfg(base_seed=1057690216)
        grid = [(a, b) for a in (-2.0, 2.0) for b in (-2.0, 2.0)]
        sim = ThinningSimulator(k, config, rate_grid=grid + [(0.0, 0.0)])
        assert not sim.state_independent
        paths = sim.ensemble((0.0, 0.0), 20).paths

        # N_t - int_0^t rate(X_s) ds is a martingale whose variance is
        # the mean of the integral
        def rate(x):
            return k.total_mass_tail(x, config.epsilon).value

        integral = sum(predictable_integral(p, rate, 1.0) for p in paths)
        count = sum(p.n_jumps for p in paths)
        assert abs(count - integral) <= 4.0 * math.sqrt(integral)


class TestDominatingRate:
    def test_undersized_grid_names_the_state(self):
        # c peaks at the origin, which the rate grid {-2, 2} misses
        k = KernelSpec(1, (StableLikeSmall(
            coeffs.inverse_quadratic_bump(1.0, 2.0), coeffs.constant(1.0)),))
        sim = ThinningSimulator(k, cfg(), rate_grid=[(-2.0,), (2.0,)])
        with pytest.raises(EnvelopeViolation) as exc:
            sim.path((0.0,), 0)
        assert "acceptance probability 1.428571 > 1 at state (0.0,);" \
            in str(exc.value)


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


class TestJumpCap:
    def test_cap_raises_with_partial(self, monkeypatch):
        # a state-independent kernel: the cap counts proposals
        monkeypatch.setattr(simulator, "MAX_JUMPS", 50)
        k = stable_kernel()
        with pytest.raises(JumpCapExceeded, match="exceed MAX_JUMPS = 50"):
            simulate_path(k, (0.0,), cfg(epsilon=0.001, t_end=100.0))

    def test_cap_raises_on_a_state_dependent_kernel(self, monkeypatch):
        # about 20 jumps to t = 1, past a cap that counts jumps
        monkeypatch.setattr(simulator, "MAX_JUMPS", 5)
        bump = coeffs.inverse_quadratic_bump(1.0, 0.5)
        k = KernelSpec(1, (StableLikeSmall(bump, coeffs.constant(1.0)),))
        sim = ThinningSimulator(k, cfg(), rate_grid=[(0.0,), (1.0,)])
        assert not sim.state_independent
        with pytest.raises(JumpCapExceeded,
                           match="MAX_JUMPS = 5 jumps reached at t="):
            sim.path((0.0,), 0)


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
        # dropped small jumps are the one mode, still named in the header,
        # and a file that names another is refused
        text = buf.getvalue()
        assert "# mode=drop\n" in text
        with pytest.raises(ValueError, match="gaussian_substitute"):
            read_path_csv(io.StringIO(text.replace(
                "# mode=drop", "# mode=gaussian_substitute")))

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
