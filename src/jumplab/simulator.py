"""Sample-path generation by epsilon-truncation and thinning.

Jumps of size ``|z| >= epsilon`` arrive with state-dependent total rate
``N(x, {|z| >= eps})``.  Proposals are drawn from a homogeneous Poisson
clock at a dominating rate (grid supremum times
:data:`DOMINATING_RATE_MARGIN`) and accepted with probability
``rate(x) / dominating_rate``; accepted jumps
are drawn from the normalized tail kernel at the current state.  Jumps
below epsilon are dropped and never replaced (their compensated drift
vanishes for symmetric components): the simulated process is the
pure-jump process of the truncated kernel, and each path records the
time-weighted fraction of the second moment that the truncation drops.
The rates and that fraction are taken once per visited state, not per
proposal, and a component with constant coefficients once per simulator.

Reproducibility: path ``i`` of an ensemble with base seed ``s`` uses a
counter-based Philox stream keyed by ``(s, i)``, so ensembles are
bit-identical across platforms and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DivergentIntegral, DomainError, EnvelopeViolation,
                     JumpCapExceeded, RangeError)

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
    "write_path_csv",
    "read_path_csv",
]


# The dominating rate is this factor times the largest tail rate over
# the rate grid: headroom for the states between the grid points.
DOMINATING_RATE_MARGIN = 1.5
# A path that needs more proposals (state-independent kernels) or jumps
# (state-dependent ones) than this raises JumpCapExceeded.
MAX_JUMPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    epsilon: float
    base_seed: int

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        # the Philox key of each path is a pair of unsigned 64-bit words
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must lie in [0, 2^64), got "
                             f"{self.base_seed}")


@dataclass(frozen=True)
class Path:
    x0: np.ndarray
    t_end: float
    jump_times: np.ndarray
    jump_vectors: np.ndarray
    dropped_variance_fraction: float
    seed: tuple
    epsilon: float

    @property
    def d(self):
        return len(self.x0)

    @property
    def n_jumps(self):
        return len(self.jump_times)


@dataclass(frozen=True)
class PathEnsemble:
    config: SimConfig
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


def _visited_states(x0, jump_times, jump_vectors, t):
    """States and holding times on [0, t], exact piecewise-constant."""
    k = int(np.searchsorted(jump_times, t, side="right"))
    holds = np.diff(np.concatenate([[0.0], jump_times[:k], [t]]))
    if k == 0:
        return x0[None, :], holds
    return np.vstack([x0, x0 + np.cumsum(jump_vectors[:k], axis=0)]), holds


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
    for name, value in (("base_seed", base_seed), ("path_index", path_index)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    _PATH_KEY[0] = base_seed
    _PATH_KEY[1] = path_index
    _PATH_BITGEN.state = _PATH_STATE
    return _PATH_GEN


# --- the simulator -----------------------------------------------------------


class ThinningSimulator:
    """Holds the dominating rate and per-component samplers for a kernel.

    ``rate_grid`` is the set of states over which the tail-rate
    supremum is taken (the validation grid by default); undersizing it
    surfaces as :class:`EnvelopeViolation` rather than silent clipping.
    Each visited state's rates and dropped fraction come from one
    :meth:`_state` call; constant components take theirs once, here.
    """

    def __init__(self, kernel, config, rate_grid=None):
        self.kernel = kernel
        self.config = config
        if rate_grid is None:
            from .validators import default_grid

            rate_grid = default_grid(kernel.d).points
        eps, d = config.epsilon, kernel.d
        self.samplers = [c.tail_sampler(d, eps) for c in kernel.components]
        self.state_independent = kernel.is_state_independent()
        origin = tuple([0.0] * kernel.d)
        probe = [origin] if self.state_independent else rate_grid
        sup = max(map(self._tail_rate, probe))
        self.dominating_rate = DOMINATING_RATE_MARGIN * sup
        # the three bands of a component with constant coefficients; one
        # that raises is taken at each state instead, which its error names
        self._parts = []
        for c in kernel.components:
            known = None
            if all(fn.is_constant() for fn in c.coefficients):
                try:
                    known = (c.tail_mass(origin, eps, d).value,
                             c.second_moment(origin, d).value,
                             c.dropped_variance(origin, eps, d).value)
                except (DivergentIntegral, DomainError):
                    pass
            self._parts.append((c, known))
        if self.state_independent:
            # the acceptance probability, the component probabilities and
            # the dropped fraction are then the same at every state too
            rates, self._si_fraction = self._state(origin)
            total = float(rates.sum())
            if total > 0:  # else the dominating rate is 0 too: no proposals
                self._p_accept = total / self.dominating_rate
                self._probs = rates / total

    def _tail_rate(self, x):
        """The kernel's total tail rate at ``x``; an error names ``x``."""
        try:
            return self.kernel.total_mass_tail(x, self.config.epsilon).value
        except (DivergentIntegral, DomainError) as exc:
            raise type(exc)(f"dominating rate at x={tuple(map(float, x))}: "
                            f"{exc}") from exc

    def _state(self, x):
        """Each component's tail rate at ``x``, and the share of the second
        moment that the jumps below epsilon carry there."""
        eps, d = self.config.epsilon, self.kernel.d
        # bench/tracer.py counts these tail_mass calls as rate evaluations
        rates = np.array([c.tail_mass(x, eps, d).value if k is None else k[0]
                          for c, k in self._parts])
        # summed from 0.0 in component order, as KernelSpec.moment sums
        trace = dropped = 0.0
        for c, k in self._parts:
            trace += c.second_moment(x, d).value if k is None else k[1]
        if trace <= 0:
            return rates, 0.0
        for c, k in self._parts:
            dropped += c.dropped_variance(x, eps, d).value if k is None \
                else k[2]
        return rates, dropped / trace

    def path(self, x0, path_index):
        return self._path(np.atleast_1d(np.asarray(x0, dtype=float)),
                          path_index)

    def _path(self, x0, path_index):
        """:meth:`path` for an ``x0`` already converted to a float array."""
        cfg = self.config
        rng = _rng_for_path(cfg.base_seed, path_index)
        if self.state_independent and self.dominating_rate > 0.0:
            times, jumps = self._path_state_independent(rng, x0)
            frac = self._si_fraction
        else:  # at a zero dominating rate, x0 is the one state
            times, jumps, frac = self._path_sequential(rng, x0)
        return Path(x0, cfg.t_end, times, jumps, frac,
                    (cfg.base_seed, path_index), cfg.epsilon)

    def _path_state_independent(self, rng, x0):
        # Draw order, which the frozen LIL band depends on: proposal
        # count, proposal times, acceptance uniforms, then the jumps.
        t_end = self.config.t_end
        n_prop = int(rng.poisson(self.dominating_rate * t_end))
        if n_prop > MAX_JUMPS:
            raise JumpCapExceeded(
                f"{n_prop} proposals exceed MAX_JUMPS = {MAX_JUMPS}")
        # times and acceptance uniforms in one call: each double takes one
        # 64-bit word, so this is the stream of two consecutive calls
        u = rng.random(2 * n_prop)
        times = u[:n_prop]
        times.sort()
        times = times[u[n_prop:] < self._p_accept] * t_end
        del u  # two words a proposal: the largest array of a path
        k = len(times)
        if k == 0:
            return times, np.empty((0, self.kernel.d))
        if len(self.samplers) == 1:
            return times, self.samplers[0].draw_many(rng, x0, k)
        comp_ids = rng.choice(len(self.samplers), size=k, p=self._probs)
        jumps = np.empty((k, self.kernel.d))
        for ci, sampler in enumerate(self.samplers):
            mask = comp_ids == ci
            if mask.any():
                jumps[mask] = sampler.draw_many(rng, x0, int(mask.sum()))
        return times, jumps

    def _path_sequential(self, rng, x0):
        t_end = self.config.t_end
        lam_bar = self.dominating_rate
        times, jumps, fracs = [], [], []  # fracs: one per visited state
        t = 0.0
        x = x0.copy()
        rates = None  # taken at the first proposal that lands at x
        while lam_bar > 0.0:
            t += rng.exponential(1.0 / lam_bar)
            if t > t_end:
                break
            if len(times) >= MAX_JUMPS:
                raise JumpCapExceeded(
                    f"MAX_JUMPS = {MAX_JUMPS} jumps reached at t={t:.6g}")
            if rates is None:
                rates, frac = self._state(x)
                fracs.append(frac)
                total = rates.sum()
                p = total / lam_bar
                if p > 1.0 + 1e-12:
                    raise EnvelopeViolation(
                        f"acceptance probability {p:.6f} > 1 at state "
                        f"{tuple(x.tolist())}; dominating rate undersized"
                    )
            u = rng.random()
            if u >= p:
                continue
            ci = 0
            if len(self.samplers) > 1:
                ci = min(len(self.samplers) - 1, int(np.searchsorted(
                    np.cumsum(rates) / total, rng.random())))
            z = self.samplers[ci].draw(rng, x)
            times.append(t)
            jumps.append(z)
            x = x + z
            rates = None
        if rates is None:  # no proposal landed at the final state
            fracs.append(self._state(x)[1])
        if not times:  # no jump: the one state's own fraction
            return np.empty(0), np.empty((0, self.kernel.d)), fracs[0]
        frac = float(np.dot(np.diff([0.0, *times, t_end]), fracs) / t_end)
        return np.array(times), np.array(jumps), frac

    def ensemble(self, x0, n_paths, jobs=1, start=0):
        """Paths ``start`` to ``start + n_paths - 1``, simulated by
        ``jobs`` worker processes; the paths do not depend on ``jobs``."""
        if n_paths <= 0:
            raise ValueError("n_paths must be positive")
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        indices = range(start, start + n_paths)
        if jobs > 1:
            paths = self._ensemble_parallel(x0, indices, jobs)
        else:
            paths = [self._path(x0, i) for i in indices]
        return PathEnsemble(self.config, tuple(paths))

    def _ensemble_parallel(self, x0, indices, jobs):
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
            return [self._path(x0, i) for i in indices]
        # the pool forks all its workers at the first submit: one for
        # each non-empty chunk
        chunks = [c.tolist() for c in np.array_split(indices, jobs) if len(c)]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(chunks)) as ex:
            futures = [ex.submit(_simulate_chunk, self, x0, chunk)
                       for chunk in chunks]
            return [p for fut in futures for p in fut.result()]


def _simulate_chunk(sim, x0, indices):
    return [sim._path(x0, i) for i in indices]


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
    if len(kernel.components) != 1 or not comp.atomic:
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
    stream.write("# mode=drop\n")  # jumps below epsilon are dropped
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
    if meta.get("mode") != "drop":
        raise ValueError(f"path file has mode={meta.get('mode')}; "
                         "only mode=drop is simulated")
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
    )
