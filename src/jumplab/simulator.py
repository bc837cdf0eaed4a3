"""Sample-path generation by epsilon-truncation and thinning.

Jumps of size ``|z| >= epsilon`` arrive with state-dependent total rate
``N(x, {|z| >= eps})``.  Proposals are drawn from a homogeneous Poisson
clock at a dominating rate (grid supremum times a safety margin) and
accepted with probability ``rate(x) / dominating_rate``; accepted jumps
are drawn from the normalized tail kernel at the current state.  Jumps
below epsilon are dropped by default (their compensated drift vanishes
for symmetric components) and the lost variance fraction is recorded;
an opt-in mode substitutes Gaussian increments with matched covariance
and flags the path as approximate.

Reproducibility: path ``i`` of an ensemble with base seed ``s`` uses a
counter-based Philox stream keyed by ``(s, i)``, so ensembles are
bit-identical across platforms and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EnvelopeViolation, JumpCapExceeded, RangeError
from .kernels import CompoundPoissonAtoms

__all__ = [
    "SimConfig",
    "Path",
    "PathEnsemble",
    "ThinningSimulator",
    "simulate_path",
    "simulate_ensemble",
    "state_at",
    "states_at",
    "sample_compound_poisson_direct",
    "auto_epsilon",
    "write_path_csv",
    "read_path_csv",
]

DROP = "drop"
GAUSSIAN = "gaussian_substitute"
_GAUSS_SUBSTEPS = 64


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    epsilon: float
    base_seed: int
    dominating_rate_margin: float = 1.5
    max_jumps: int = 10_000_000
    small_jump_mode: str = DROP

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.dominating_rate_margin < 1.0:
            raise ValueError("dominating_rate_margin must be >= 1")
        if self.max_jumps <= 0:
            raise ValueError("max_jumps must be positive")
        if self.small_jump_mode not in (DROP, GAUSSIAN):
            raise ValueError(f"unknown small_jump_mode {self.small_jump_mode}")


@dataclass(frozen=True)
class Path:
    x0: np.ndarray
    t_end: float
    jump_times: np.ndarray
    jump_vectors: np.ndarray
    dropped_variance_fraction: float
    seed: tuple
    epsilon: float
    approximate: bool = False

    @property
    def d(self):
        return len(self.x0)

    @property
    def n_jumps(self):
        return len(self.jump_times)


@dataclass(frozen=True)
class PathEnsemble:
    config: SimConfig
    kernel_label: str
    paths: tuple

    @property
    def n_paths(self):
        return len(self.paths)


def state_at(path, t):
    """State of the piecewise-constant path at time ``t`` (cadlag)."""
    if t < 0 or t > path.t_end:
        raise RangeError(f"t={t} outside [0, {path.t_end}]")
    if path.n_jumps == 0:
        return path.x0.copy()
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    return path.x0 + path.jump_vectors[:k].sum(axis=0)


def states_at(path, times):
    """Vectorized :func:`state_at` for an increasing array of times."""
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < 0 or times.max() > path.t_end):
        raise RangeError("times outside [0, t_end]")
    if path.n_jumps == 0:
        return np.tile(path.x0, (len(times), 1))
    cum = np.vstack([np.zeros(path.d), np.cumsum(path.jump_vectors, axis=0)])
    idx = np.searchsorted(path.jump_times, times, side="right")
    return path.x0[None, :] + cum[idx]


_PATH_BITGEN = np.random.Philox()
_PATH_GEN = np.random.Generator(_PATH_BITGEN)
_PHILOX_ZERO = np.zeros(4, dtype=np.uint64)
_PATH_KEY = np.zeros(2, dtype=np.uint64)
_PATH_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _PHILOX_ZERO, "key": _PATH_KEY},
    "buffer": _PHILOX_ZERO,
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def _rng_for_path(base_seed, path_index):
    # One Philox substream per (seed, path) pair.  Resetting the state of
    # a shared bit generator is several times cheaper than constructing a
    # fresh one and produces the identical stream; the state setter copies
    # the dict, so one dict with a key rewritten in place serves every
    # path.  The generator handed back is shared by every caller in the
    # process: it is valid only until the next call, and it is not
    # thread-safe, so paths must not be simulated from several threads.
    _PATH_KEY[0] = base_seed
    _PATH_KEY[1] = path_index
    _PATH_BITGEN.state = _PATH_STATE
    return _PATH_GEN


def auto_epsilon(kernel, grid_points, fraction=0.01, floor=1e-4):
    """Largest dyadic epsilon whose truncated variance stays below
    ``fraction`` of the second-moment trace over the grid."""
    eps = 0.5
    while eps > floor:
        worst = 0.0
        for x in grid_points:
            trace = kernel.second_moment(x).value
            lost = kernel.dropped_variance(x, eps).value
            if trace > 0:
                worst = max(worst, lost / trace)
        if worst <= fraction:
            return eps
        eps *= 0.5
    return eps


# --- the simulator -----------------------------------------------------------


class ThinningSimulator:
    """Holds the dominating rate and per-component samplers for a kernel.

    ``rate_grid`` is the set of states over which the tail-rate
    supremum is taken (the validation grid by default); undersizing it
    surfaces as :class:`EnvelopeViolation` rather than silent clipping.
    """

    def __init__(self, kernel, config, rate_grid=None):
        self.kernel = kernel
        self.config = config
        if rate_grid is None:
            from .validators import default_grid

            rate_grid = default_grid(kernel.d).points
        self.samplers = [
            c.tail_sampler(kernel.d, config.epsilon)
            for c in kernel.components
        ]
        self.state_independent = kernel.is_state_independent()
        origin = tuple([0.0] * kernel.d)
        probe = [origin] if self.state_independent else rate_grid
        sup = max(
            kernel.total_mass_tail(x, config.epsilon).value for x in probe
        )
        self.dominating_rate = config.dominating_rate_margin * sup
        # state-independent kernels: rates, acceptance probability and
        # dropped fraction never change; precompute them once
        self._si_cache = None
        if self.state_independent:
            rates = self._rates(origin)
            total = float(rates.sum())
            probs = rates / total if total > 0 else rates
            p_accept = total / self.dominating_rate \
                if self.dominating_rate > 0 else 0.0
            if p_accept > 1.0 + 1e-12:
                raise EnvelopeViolation(
                    f"acceptance probability {p_accept:.6f} > 1; "
                    "dominating rate undersized"
                )
            self._si_cache = (
                p_accept, probs, self._compute_dropped_fraction(origin),
            )

    def _rates(self, x):
        # one tail_mass call per component and state, which bench/tracer.py
        # counts as one proposal
        return np.array([
            c.tail_mass(x, self.config.epsilon, self.kernel.d).value
            for c in self.kernel.components
        ])

    # dropped-variance bookkeeping, time-weighted over visited states
    def _compute_dropped_fraction(self, x):
        trace = self.kernel.second_moment(x).value
        if trace <= 0:
            return 0.0
        return self.kernel.dropped_variance(x, self.config.epsilon).value \
            / trace

    def _dropped_fraction(self, x):
        if self._si_cache is not None:
            return self._si_cache[2]
        return self._compute_dropped_fraction(x)

    def path(self, x0, path_index):
        return self._path(np.atleast_1d(np.asarray(x0, dtype=float)),
                          path_index)

    def _path(self, x0, path_index):
        """:meth:`path` for an ``x0`` already converted to a float array."""
        cfg = self.config
        rng = _rng_for_path(cfg.base_seed, path_index)
        if self.state_independent:
            times, jumps = self._path_state_independent(rng, x0, cfg.t_end)
        else:
            times, jumps = self._path_sequential(rng, x0)
        frac = self._average_dropped_fraction(x0, times, jumps)
        path = Path(
            x0, cfg.t_end, times, jumps, frac,
            (cfg.base_seed, path_index), cfg.epsilon,
            approximate=cfg.small_jump_mode == GAUSSIAN,
        )
        if cfg.small_jump_mode == GAUSSIAN:
            path = self._substitute_gaussian(rng, path)
        return path

    def _path_state_independent(self, rng, x0, t_end):
        # Draw order, which the frozen LIL band depends on: proposal
        # count, proposal times, acceptance uniforms, then the jumps.
        cfg = self.config
        lam_bar = self.dominating_rate
        if lam_bar <= 0.0:
            return np.empty(0), np.empty((0, self.kernel.d))
        n_prop = int(rng.poisson(lam_bar * t_end))
        if n_prop > cfg.max_jumps:
            # hand back whatever fits below the cap as a shortened path
            t_cap = t_end * (cfg.max_jumps / n_prop)
            times, jumps = self._path_state_independent(rng, x0, t_cap)
            partial = Path(
                x0, t_cap, times, jumps, self._dropped_fraction(x0),
                (cfg.base_seed, -1), cfg.epsilon,
            )
            raise JumpCapExceeded(
                f"{n_prop} proposals exceed max_jumps={cfg.max_jumps}",
                partial=partial,
            )
        p_accept, probs, _ = self._si_cache
        # times and acceptance uniforms in one call: each double takes one
        # 64-bit word, so this is the stream of two consecutive calls
        u = rng.random(2 * n_prop)
        times = u[:n_prop]
        times.sort()
        times = times[u[n_prop:] < p_accept] * t_end
        k = len(times)
        if k == 0:
            return times, np.empty((0, self.kernel.d))
        if len(self.samplers) == 1:
            return times, self.samplers[0].draw_many(rng, x0, k)
        comp_ids = rng.choice(len(self.samplers), size=k, p=probs)
        jumps = np.empty((k, self.kernel.d))
        for ci, sampler in enumerate(self.samplers):
            mask = comp_ids == ci
            if mask.any():
                jumps[mask] = sampler.draw_many(rng, x0, int(mask.sum()))
        return times, jumps

    def _path_sequential(self, rng, x0):
        cfg = self.config
        lam_bar = self.dominating_rate
        d = self.kernel.d
        times = []
        jumps = []
        t = 0.0
        x = x0.copy()
        if lam_bar <= 0.0:
            return np.empty(0), np.empty((0, d))
        while True:
            t += rng.exponential(1.0 / lam_bar)
            if t > cfg.t_end:
                break
            if len(times) >= cfg.max_jumps:
                partial = Path(
                    x0, t, np.array(times), np.array(jumps),
                    self._dropped_fraction(x0),
                    (cfg.base_seed, -1), cfg.epsilon,
                )
                raise JumpCapExceeded(
                    f"max_jumps={cfg.max_jumps} reached at t={t:.6g}",
                    partial=partial,
                )
            rates = self._rates(x)
            total = rates.sum()
            p = total / lam_bar
            if p > 1.0 + 1e-12:
                raise EnvelopeViolation(
                    f"acceptance probability {p:.6f} > 1 at state "
                    f"{tuple(x)}; dominating rate undersized"
                )
            u = rng.random()
            if u >= p:
                continue
            if len(self.samplers) == 1:
                ci = 0
            else:
                ci = int(
                    np.searchsorted(np.cumsum(rates) / total, rng.random())
                )
                ci = min(ci, len(self.samplers) - 1)
            z = self.samplers[ci].draw(rng, x)
            times.append(t)
            jumps.append(z)
            x = x + z
        if not times:
            return np.empty(0), np.empty((0, d))
        return np.array(times), np.array(jumps)

    def _average_dropped_fraction(self, x0, times, jumps):
        if self.state_independent or len(times) == 0:
            return self._dropped_fraction(x0)
        # time-weighted over the visited states
        t_end = self.config.t_end
        holds = np.diff(np.concatenate([[0.0], times, [t_end]]))
        states = np.vstack([x0, x0 + np.cumsum(jumps, axis=0)])
        fracs = np.array([self._dropped_fraction(s) for s in states])
        return float(np.dot(holds, fracs) / t_end)

    def _substitute_gaussian(self, rng, path):
        """Replace the dropped small-jump part by Brownian increments
        with matched covariance on a fixed substep grid."""
        cfg = self.config
        d = self.kernel.d
        grid = np.linspace(0.0, cfg.t_end, _GAUSS_SUBSTEPS + 1)
        mids = 0.5 * (grid[1:] + grid[:-1])
        states = states_at(path, mids)
        incs = []
        for k, tm in enumerate(mids):
            var = self.kernel.dropped_variance(
                states[k], cfg.epsilon
            ).value / d
            dt = grid[k + 1] - grid[k]
            incs.append(rng.standard_normal(d) * math.sqrt(var * dt))
        all_times = np.concatenate([path.jump_times, mids])
        all_jumps = np.vstack([path.jump_vectors.reshape(-1, d), incs])
        order = np.argsort(all_times, kind="stable")
        return replace(
            path,
            jump_times=all_times[order],
            jump_vectors=all_jumps[order],
            approximate=True,
        )

    def ensemble(self, x0, n_paths, jobs=1):
        if n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if jobs > 1:
            paths = self._ensemble_parallel(x0, n_paths, jobs)
        else:
            x0 = np.atleast_1d(np.asarray(x0, dtype=float))
            paths = [self._path(x0, i) for i in range(n_paths)]
        label = " + ".join(
            type(c).__name__ for c in self.kernel.components
        )
        return PathEnsemble(self.config, label, tuple(paths))

    def _ensemble_parallel(self, x0, n_paths, jobs):
        import concurrent.futures
        import logging
        import pickle

        # the workers get this simulator itself, so they share its
        # dominating rate rather than recomputing it on another grid
        try:
            pickle.dumps(self)
        except Exception as exc:
            logging.getLogger("jumplab").warning(
                "simulating serially: the simulator cannot be pickled "
                "(%s: %s)", type(exc).__name__, exc)
            return [self.path(x0, i) for i in range(n_paths)]
        chunks = np.array_split(np.arange(n_paths), jobs)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            futures = [
                ex.submit(_simulate_chunk, self,
                          np.asarray(x0, dtype=float), chunk.tolist())
                for chunk in chunks if len(chunk)
            ]
            results = {}
            for fut in futures:
                results.update(fut.result())
        return [results[i] for i in range(n_paths)]


def _simulate_chunk(sim, x0, indices):
    return {i: sim.path(x0, i) for i in indices}


def simulate_path(kernel, x0, config, path_index=0, rate_grid=None):
    """One path; identical arguments give a bit-identical result."""
    return ThinningSimulator(kernel, config, rate_grid).path(x0, path_index)


def simulate_ensemble(kernel, x0, config, n_paths, jobs=1, rate_grid=None):
    """``n_paths`` independent paths with per-path substreams."""
    sim = ThinningSimulator(kernel, config, rate_grid)
    return sim.ensemble(x0, n_paths, jobs=jobs)


def sample_compound_poisson_direct(kernel, x0, t_end, base_seed, path_index):
    """Exact compound-Poisson sampling (no thinning) for atomic kernels.

    The independent reference law for distribution cross-checks of the
    thinning scheme.
    """
    comp = kernel.components[0]
    if len(kernel.components) != 1 or not isinstance(
        comp, CompoundPoissonAtoms
    ):
        raise TypeError("direct sampler requires a single atomic component")
    rng = _rng_for_path(base_seed, path_index)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    weights = np.array([w for w, _ in comp.atoms])
    total = weights.sum()
    n = int(rng.poisson(total * t_end))
    times = np.sort(rng.random(n)) * t_end
    ks = rng.choice(len(comp.atoms), size=n, p=weights / total)
    jumps = np.array([comp.atoms[k][1] for k in ks], dtype=float) \
        if n else np.empty((0, kernel.d))
    return Path(x0, t_end, times, jumps, 0.0, (base_seed, path_index), 0.0)


# --- serialization -----------------------------------------------------------


def _fmt(v):
    return repr(float(v))


def write_path_csv(path, stream):
    """CSV with metadata comments and shortest round-trip floats."""
    d = path.d
    stream.write(f"# d={d}\n")
    stream.write(f"# x0={','.join(_fmt(v) for v in path.x0)}\n")
    stream.write(f"# seed={path.seed[0]},{path.seed[1]}\n")
    stream.write(f"# epsilon={_fmt(path.epsilon)}\n")
    stream.write(f"# t_end={_fmt(path.t_end)}\n")
    mode = GAUSSIAN if path.approximate else DROP
    stream.write(f"# mode={mode}\n")
    stream.write(
        f"# dropped_variance_fraction={_fmt(path.dropped_variance_fraction)}\n"
    )
    cols = ",".join(f"z{i + 1}" for i in range(d))
    stream.write(f"jump_time,{cols}\n")
    for t, z in zip(path.jump_times, path.jump_vectors):
        row = ",".join(_fmt(c) for c in np.atleast_1d(z))
        stream.write(f"{_fmt(t)},{row}\n")


def read_path_csv(stream):
    meta = {}
    times = []
    jumps = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
            continue
        if line.startswith("jump_time"):
            continue
        parts = line.split(",")
        times.append(float(parts[0]))
        jumps.append([float(p) for p in parts[1:]])
    d = int(meta["d"])
    x0 = np.array([float(v) for v in meta["x0"].split(",")])
    seed = tuple(int(v) for v in meta["seed"].split(","))
    return Path(
        x0,
        float(meta["t_end"]),
        np.array(times),
        np.array(jumps).reshape(-1, d),
        float(meta["dropped_variance_fraction"]),
        seed,
        float(meta["epsilon"]),
        approximate=meta.get("mode") == GAUSSIAN,
    )
