"""Monte-Carlo verification of martingale, moment, QV and LIL claims.

All path-time integrals are exact piecewise-constant sums: a pure-jump
path holds each state for a known interval, so predictable integrals
carry no time-discretization error.  Reductions run in a fixed order,
making every report deterministic for a given ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .simulator import _visited_states, states_at

__all__ = [
    "TestFunction",
    "TEST_FUNCTIONS",
    "MartingaleReport",
    "MomentIdentityReport",
    "QVReport",
    "GeneratorMartingaleReport",
    "LILReport",
    "martingale_test",
    "martingale_series",
    "second_moment_identity",
    "qv_comparison",
    "apply_generator",
    "generator_martingale_test",
    "lil_statistics",
    "predictable_integral",
]

EE = math.e**math.e  # loglog turns positive above e^e
Z_GATE = 3.0


@dataclass(frozen=True)
class TestFunction:
    """A twice-differentiable test function with an evaluable gradient."""

    name: str
    u: object
    grad: object


def _const_u(x):
    return 1.0


def _const_grad(x):
    return np.zeros(len(x))


def _sin0_u(x):
    return math.sin(x[0])


def _sin0_grad(x):
    g = np.zeros(len(x))
    g[0] = math.cos(x[0])
    return g


def _cos0_u(x):
    return math.cos(x[0])


def _cos0_grad(x):
    g = np.zeros(len(x))
    g[0] = -math.sin(x[0])
    return g


def _sq0_u(x):
    return x[0] * x[0]


def _sq0_grad(x):
    g = np.zeros(len(x))
    g[0] = 2.0 * x[0]
    return g


TEST_FUNCTIONS = {
    "constant": TestFunction("constant", _const_u, _const_grad),
    "sin_first": TestFunction("sin_first", _sin0_u, _sin0_grad),
    "cos_first": TestFunction("cos_first", _cos0_u, _cos0_grad),
    # unbounded; useful locally where moments are finite
    "square_first": TestFunction("square_first", _sq0_u, _sq0_grad),
}


# --- pathwise helpers --------------------------------------------------------


def predictable_integral(path, fn, t, constant_value=None):
    """``int_0^t f(X_s) ds`` for scalar ``f``, exact for pure-jump paths.

    ``constant_value`` short-circuits state-independent integrands.
    """
    if constant_value is not None:
        return constant_value * t
    states, holds = _visited_states(path.x0, path.jump_times,
                                    path.jump_vectors, t)
    vals = np.array([fn(s) for s in states])
    return float(np.dot(holds, vals))


def _integrated_a(paths, kernel, times):
    """``int_0^t a(X_s) ds`` for every path at each of the increasing
    ``times``, an ``(n_paths, len(times), d, d)`` array, with ``a`` from
    ``kernel.diffusion_matrix``.

    A state-independent kernel evaluates ``a`` once in all; otherwise
    ``a`` is evaluated once per state visited up to the last time, and
    each entry is integrated by one ``np.dot`` of the holding times with
    its contiguous values, the sum :func:`predictable_integral` takes.
    Raises :class:`RangeError` if a time lies outside a path's
    ``[0, t_end]``, where the realized side has no data.
    """
    d = kernel.d
    times = np.asarray(times, dtype=float)
    if any(times[0] < 0 or times[-1] > p.t_end for p in paths):
        raise RangeError("times outside [0, t_end]")
    out = np.empty((len(paths), len(times), d, d))
    if kernel.is_state_independent():
        a = kernel.diffusion_matrix(tuple([0.0] * d)).a
        out[:] = times[:, None, None] * a
        return out
    for k, p in enumerate(paths):
        states, _ = _visited_states(p.x0, p.jump_times, p.jump_vectors,
                                    times[-1])
        # one contiguous row of values per entry (i, j)
        rows = np.array([kernel.diffusion_matrix(s).a for s in states]) \
            .reshape(len(states), d * d).T.copy()
        for m, t in enumerate(times):
            _, holds = _visited_states(p.x0, p.jump_times,
                                       p.jump_vectors, t)
            out[k, m] = np.array([
                np.dot(holds, row[:len(holds)]) for row in rows
            ]).reshape(d, d)
    return out


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleReport:
    t: float
    n_paths: int
    mean: np.ndarray
    se: np.ndarray
    z_scores: np.ndarray

    @property
    def passed(self):
        return bool(np.all(np.abs(self.z_scores) <= Z_GATE))


@dataclass(frozen=True)
class MomentIdentityReport:
    t: float
    n_paths: int
    lhs: np.ndarray       # per-coordinate mean of (X_t - x0)^2
    lhs_se: np.ndarray
    rhs: np.ndarray       # mean predictable integral of the diagonal
    relative_difference: np.ndarray


@dataclass(frozen=True)
class QVReport:
    t: float
    n_paths: int
    realized_mean: np.ndarray     # (d, d)
    predictable_mean: np.ndarray  # (d, d)
    diff_mean: np.ndarray
    diff_se: np.ndarray
    z_scores: np.ndarray

    @property
    def passed(self):
        return bool(np.all(np.abs(self.z_scores) <= Z_GATE))


@dataclass(frozen=True)
class GeneratorMartingaleReport:
    t: float
    n_paths: int
    function: str
    mean: float
    se: float
    z_score: float

    @property
    def passed(self):
        return abs(self.z_score) <= Z_GATE


@dataclass(frozen=True)
class LILReport:
    checkpoints: np.ndarray
    direction: np.ndarray
    directional: np.ndarray      # (n_paths, n_cp) W statistic
    radial: np.ndarray           # (n_paths, n_cp) R statistic
    running_max_directional: np.ndarray  # per path, at the last checkpoint
    running_max_radial: np.ndarray
    lambda_hat: float
    Lambda_hat: float
    degenerate: bool = False

    @property
    def band(self):
        return (math.sqrt(self.lambda_hat), math.sqrt(self.Lambda_hat))


# --- estimators --------------------------------------------------------------


def _mean_se(samples, axis=0):
    n = samples.shape[axis]
    mean = samples.mean(axis=axis)
    if n > 1:
        se = samples.std(axis=axis, ddof=1) / math.sqrt(n)
    else:
        se = np.zeros_like(mean)
    return mean, se


def martingale_test(ensemble, t):
    """Per-coordinate z-test of ``E[X_t - x0] = 0``."""
    return martingale_series(ensemble, [t])[0]


def martingale_series(ensemble, times):
    """:func:`martingale_test` at each of ``times``, in one pass.

    Each path's displacements at all times come from a single
    :func:`states_at` call; the reduction at ``times[j]`` sees exactly
    the values a separate :func:`martingale_test` call would.
    """
    paths = ensemble.paths
    if not paths:
        raise ValueError("empty ensemble")
    # preallocated: stacking per-path arrays would hold the data twice
    deltas = np.empty((len(times), len(paths), paths[0].d))
    for k, p in enumerate(paths):
        deltas[:, k] = states_at(p, times) - p.x0
    reports = []
    for t, delta in zip(times, deltas):
        mean, se = _mean_se(delta)
        safe_se = np.where(se > 0, se, 1.0)
        z = np.where(se > 0, mean / safe_se, 0.0)
        reports.append(MartingaleReport(t, len(paths), mean, se, z))
    return reports


def second_moment_identity(ensemble, kernel, t):
    """Sample second moment against the predictable integral."""
    paths = ensemble.paths
    deltas = np.array([states_at(p, [t])[0] - p.x0 for p in paths])
    lhs_samples = deltas**2
    lhs, lhs_se = _mean_se(lhs_samples)
    A = _integrated_a(paths, kernel, [t])[:, 0]
    # contiguous rows: a strided mean would sum in another order
    rhs = np.diagonal(A, axis1=1, axis2=2).T.copy().mean(axis=1)
    denom = np.where(np.abs(rhs) > 0, np.abs(rhs), 1.0)
    rel = (lhs - rhs) / denom
    return MomentIdentityReport(t, len(paths), lhs, lhs_se, rhs, rel)


def qv_comparison(ensemble, kernel, t):
    """Realized minus predictable quadratic variation, all (i, j).

    Raises :class:`RangeError` if ``t`` lies past a path's ``t_end``.
    """
    paths = ensemble.paths
    d = kernel.d
    n = len(paths)
    realized = np.zeros((n, d, d))
    predictable = _integrated_a(paths, kernel, [t])[:, 0]
    for k, p in enumerate(paths):
        cut = int(np.searchsorted(p.jump_times, t, side="right"))
        zs = p.jump_vectors[:cut]
        if len(zs):
            realized[k] = zs.T @ zs
    diff = realized - predictable
    diff_flat = diff.reshape(n, -1)
    mean, se = _mean_se(diff_flat)
    safe = np.where(se > 0, se, 1.0)
    z = np.where(se > 0, mean / safe, 0.0)
    return QVReport(
        t, n,
        realized.mean(axis=0),
        predictable.mean(axis=0),
        mean.reshape(d, d),
        se.reshape(d, d),
        z.reshape(d, d),
    )


def apply_generator(kernel, u, x):
    """``Lu(x)`` by exact atom sums plus radial x spherical quadrature."""
    if isinstance(u, str):
        u = TEST_FUNCTIONS[u]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ux = u.u(x)
    gx = np.asarray(u.grad(x), dtype=float)
    total = 0.0
    for comp in kernel.components:
        # term by term: a subtotal per component would round differently
        for term in comp.generator_terms(u.u, x, ux, gx, kernel.d):
            total += term
    return total


def generator_martingale_test(ensemble, kernel, u, t):
    """z-test of ``E[u(X_t) - u(x0) - int_0^t Lu(X_s) ds] = 0``."""
    if isinstance(u, str):
        u = TEST_FUNCTIONS[u]
    paths = ensemble.paths
    cache = {}
    samples = []
    for p in paths:
        if t < 0 or t > p.t_end:
            raise RangeError("times outside [0, t_end]")
        states, holds = _visited_states(p.x0, p.jump_times,
                                        p.jump_vectors, t)
        # Lu is cached by the state rounded to 12 decimals; a path's
        # states are rounded together in one call
        vals = []
        for x, rounded in zip(states, np.round(states, 12)):
            key = tuple(rounded)
            if key not in cache:
                cache[key] = apply_generator(kernel, u, x)
            vals.append(cache[key])
        integral = float(np.dot(holds, np.array(vals)))
        samples.append(u.u(states[-1]) - u.u(p.x0) - integral)
    samples = np.array(samples)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(len(samples))) \
        if len(samples) > 1 else 0.0
    z = mean / se if se > 0 else 0.0
    return GeneratorMartingaleReport(t, len(paths), u.name, mean, se, z)


def lil_statistics(ensemble, direction, checkpoints, lambda_hat, Lambda_hat,
                   kernel=None):
    """Directional and radial iterated-logarithm statistics.

    ``W_t = <X_t, r> / sqrt(2 <X^r>_t loglog <X^r>_t)`` and
    ``R_t = |X_t| / sqrt(2 t loglog t)`` at each checkpoint, with
    running maxima of their absolute values.  Checkpoints must exceed
    ``e^e`` so the iterated logarithm is positive.  ``kernel`` supplies
    ``a(x)``, and ``<X^r>_t = r' (int_0^t a(X_s) ds) r``; omitted,
    ``<X^r>_t`` falls back to ``lambda_hat * t`` (exact for
    state-independent kernels with ``lambda_hat = Lambda_hat``).
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    if np.any(checkpoints < EE):
        raise RangeError(f"checkpoints must be >= e^e ~ {EE:.3f}")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    paths = ensemble.paths
    n = len(paths)
    ncp = len(checkpoints)
    W = np.zeros((n, ncp))
    R = np.zeros((n, ncp))
    degenerate = True
    if kernel is None:
        qvs = np.tile(lambda_hat * checkpoints, (n, 1))
    else:
        qvs = _integrated_a(paths, kernel, checkpoints) @ direction @ direction
    for k, (p, qv) in enumerate(zip(paths, qvs)):
        xs = states_at(p, checkpoints)
        proj = xs @ direction
        norms = np.linalg.norm(xs, axis=1)
        pos = qv > math.e
        if np.any(pos):
            degenerate = False
        denomW = np.where(
            pos, np.sqrt(2.0 * qv * np.log(np.maximum(np.log(
                np.maximum(qv, math.e)), 1e-300))), np.inf
        )
        W[k] = np.where(pos, proj / denomW, 0.0)
        R[k] = norms / np.sqrt(
            2.0 * checkpoints * np.log(np.log(checkpoints))
        )
    run_W = np.maximum.accumulate(np.abs(W), axis=1)[:, -1]
    run_R = np.maximum.accumulate(R, axis=1)[:, -1]
    return LILReport(
        checkpoints, direction, W, R, run_W, run_R,
        lambda_hat, Lambda_hat, degenerate=degenerate,
    )
