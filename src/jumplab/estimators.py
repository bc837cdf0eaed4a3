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
    "Reduction",
    "martingale_reduction",
    "moment_identity_reduction",
    "qv_reduction",
    "generator_reduction",
    "lil_reduction",
]

EE = math.e**math.e  # loglog turns positive above e^e
Z_GATE = 3.0


@dataclass(frozen=True)
class TestFunction:
    """A twice-differentiable test function with an evaluable gradient."""

    name: str
    u: object
    grad: object


def _first_coordinate(name, f, df):
    """``u(x) = f(x_1)``, whose gradient is ``(f'(x_1), 0, ..., 0)``."""
    def grad(x):
        g = np.zeros(len(x))
        g[0] = df(x[0])
        return g

    return TestFunction(name, lambda x: f(x[0]), grad)


TEST_FUNCTIONS = {fn.name: fn for fn in (
    _first_coordinate("constant", lambda s: 1.0, lambda s: 0.0),
    _first_coordinate("sin_first", math.sin, math.cos),
    _first_coordinate("cos_first", math.cos, lambda s: -math.sin(s)),
    # unbounded; useful locally where moments are finite
    _first_coordinate("square_first", lambda s: s * s, lambda s: 2.0 * s),
)}


# --- pathwise helpers --------------------------------------------------------


def _time_integrals(paths, f, times, c=None):
    """``int_0^t f(X_s) ds`` for every path at each of the increasing
    ``times``, an ``(n_paths, len(times)) + shape`` array.

    ``f`` takes one path's ``(n, d)`` array of the states it visits up
    to the last time and returns their ``(n,) + shape`` values; it is
    called once per path.  A constant ``c`` is integrated as ``t * c``
    without ``f``.  Each entry is one ``np.dot`` of the holding times up
    to ``t`` with its contiguous values, exact for a pure-jump path.
    Raises :class:`RangeError` if a time lies outside a path's
    ``[0, t_end]``, where the path has no data, and ``ValueError`` for
    no paths.
    """
    if not paths:
        raise ValueError("empty ensemble")
    times = np.asarray(times, dtype=float)
    if any(times[0] < 0 or times[-1] > p.t_end for p in paths):
        raise RangeError("times outside [0, t_end]")
    if c is not None:
        c = np.asarray(c, dtype=float)
        out = np.empty((len(paths), len(times)) + c.shape)
        out[:] = times.reshape((-1,) + (1,) * c.ndim) * c
        return out
    out = None
    *earlier, t_last = times.tolist()
    for k, p in enumerate(paths):
        states, holds = _visited_states(p.x0, p.jump_times, p.jump_vectors,
                                        t_last)
        vals = np.asarray(f(states), dtype=float)
        if out is None:
            shape = vals.shape[1:]
            out = np.empty((len(paths), len(times), math.prod(shape)))
        # one contiguous row of values per entry
        rows = np.ascontiguousarray(vals.reshape(len(states), -1).T)
        out[k, -1] = [np.dot(holds, row) for row in rows]
        for m, t in enumerate(earlier):
            _, holds = _visited_states(p.x0, p.jump_times, p.jump_vectors, t)
            out[k, m] = [np.dot(holds, row[:len(holds)]) for row in rows]
    return out.reshape((len(paths), len(times)) + shape)


def predictable_integral(path, fn, t, constant_value=None):
    """``int_0^t f(X_s) ds`` for scalar ``f``, exact for pure-jump paths.

    ``constant_value`` short-circuits state-independent integrands.
    Raises :class:`RangeError` if ``t`` lies outside ``[0, t_end]``.
    """
    return float(_time_integrals(
        [path], lambda states: [fn(s) for s in states], [t],
        constant_value)[0, 0])


def _integrated_a(paths, kernel, times):
    """``int_0^t a(X_s) ds`` for every path at each of the increasing
    ``times``, an ``(n_paths, len(times), d, d)`` array, with ``a`` from
    ``kernel.diffusion_matrix``; a state-independent kernel evaluates
    ``a`` once in all."""
    def a(x):
        return kernel.diffusion_matrix(x).a

    if kernel.is_state_independent():
        return _time_integrals(paths, None, times, a((0.0,) * kernel.d))
    return _time_integrals(paths, lambda states: [a(s) for s in states],
                           times)


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
    degenerate: bool = False


# --- estimators --------------------------------------------------------------


def _mean_se(samples):
    """Mean, standard error and z-score of ``samples`` over their first
    axis; the z-score is 0 where the standard error is."""
    n = len(samples)
    mean = samples.mean(axis=0)
    if n > 1:
        se = samples.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        se = np.zeros_like(mean)
    z = np.where(se > 0, mean / np.where(se > 0, se, 1.0), 0.0)
    return mean, se, z


class Reduction:
    """An estimator as a reduction over blocks of consecutive paths.

    ``step(paths)`` turns a block into a tuple of arrays with one row
    per path; ``final(rows)`` turns those arrays, stacked over the blocks
    in path order, into the report.  So the report does not depend on
    how the paths were split into blocks.
    """

    def __init__(self, step, final):
        self.step, self.final, self.blocks = step, final, []

    def feed(self, paths):
        self.blocks.append(self.step(paths))
        return self

    def result(self):
        """The report over every path fed so far, whose rows the
        reduction then drops; one block's rows are not copied."""
        blocks, self.blocks = self.blocks, []
        if len(blocks) == 1:
            return self.final(blocks.pop())
        return self.final(tuple(map(np.concatenate, zip(*blocks))))


def martingale_test(ensemble, t):
    """Per-coordinate z-test of ``E[X_t - x0] = 0``."""
    return martingale_series(ensemble, [t])[0]


def martingale_series(ensemble, times):
    """:func:`martingale_test` at each of ``times``, in one pass.

    Each path's displacements at all times come from a single
    :func:`states_at` call; the reduction at ``times[j]`` sees exactly
    the values a separate :func:`martingale_test` call would.
    """
    return martingale_reduction(times).feed(ensemble.paths).result()


def martingale_reduction(times):
    """:func:`martingale_series` as a :class:`Reduction`."""
    def step(paths):
        if not paths:
            raise ValueError("empty ensemble")
        # preallocated: stacking per-path arrays would hold the data twice
        deltas = np.empty((len(times), len(paths), paths[0].d))
        for k, p in enumerate(paths):
            deltas[:, k] = states_at(p, times) - p.x0
        return tuple(deltas)  # one (n_paths, d) array per time

    def final(rows):
        return [MartingaleReport(t, len(rows[0]), *_mean_se(delta))
                for t, delta in zip(times, rows)]

    return Reduction(step, final)


def second_moment_identity(ensemble, kernel, t):
    """Sample second moment against the predictable integral."""
    return moment_identity_reduction(kernel, t).feed(ensemble.paths).result()


def moment_identity_reduction(kernel, t):
    """:func:`second_moment_identity` as a :class:`Reduction`."""
    def step(paths):
        deltas = np.array([states_at(p, [t])[0] - p.x0 for p in paths])
        A = _integrated_a(paths, kernel, [t])[:, 0]
        return deltas, np.diagonal(A, axis1=1, axis2=2)

    def final(rows):
        deltas, diagonal = rows
        lhs, lhs_se, _ = _mean_se(deltas**2)
        # contiguous rows: a strided mean would sum in another order
        rhs = diagonal.T.copy().mean(axis=1)
        denom = np.where(np.abs(rhs) > 0, np.abs(rhs), 1.0)
        rel = (lhs - rhs) / denom
        return MomentIdentityReport(t, len(deltas), lhs, lhs_se, rhs, rel)

    return Reduction(step, final)


def qv_comparison(ensemble, kernel, t):
    """Realized minus predictable quadratic variation, all (i, j).

    Raises :class:`RangeError` if ``t`` lies past a path's ``t_end``.
    """
    return qv_reduction(kernel, t).feed(ensemble.paths).result()


def qv_reduction(kernel, t):
    """:func:`qv_comparison` as a :class:`Reduction`."""
    d = kernel.d

    def step(paths):
        realized = np.zeros((len(paths), d, d))
        predictable = _integrated_a(paths, kernel, [t])[:, 0]
        for k, p in enumerate(paths):
            cut = int(np.searchsorted(p.jump_times, t, side="right"))
            zs = p.jump_vectors[:cut]
            if len(zs):
                realized[k] = zs.T @ zs
        return realized, predictable

    def final(rows):
        realized, predictable = rows
        n = len(realized)
        mean, se, z = _mean_se((realized - predictable).reshape(n, -1))
        return QVReport(
            t, n,
            realized.mean(axis=0),
            predictable.mean(axis=0),
            mean.reshape(d, d),
            se.reshape(d, d),
            z.reshape(d, d),
        )

    return Reduction(step, final)


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
    return generator_reduction(kernel, u, t).feed(ensemble.paths).result()


def generator_reduction(kernel, u, t):
    """:func:`generator_martingale_test` as a :class:`Reduction`."""
    if isinstance(u, str):
        u = TEST_FUNCTIONS[u]
    # Lu by the state rounded to 12 decimals, over every block
    cache = {}

    def step(paths):
        changes = []  # u(X_t) - u(x0), one float per path

        def lu(states):
            changes.append(u.u(states[-1]) - u.u(states[0]))
            # a path's states are rounded together in one call
            keys = list(map(tuple, np.round(states, 12).tolist()))
            for i, key in enumerate(keys):
                if key not in cache:
                    cache[key] = apply_generator(kernel, u, states[i])
            return [cache[key] for key in keys]

        integrals = _time_integrals(paths, lu, [t])[:, 0]
        return (np.array(changes) - integrals,)

    def final(rows):
        mean, se, z = _mean_se(rows[0])
        return GeneratorMartingaleReport(t, len(rows[0]), u.name,
                                         float(mean), float(se), float(z))

    return Reduction(step, final)


def lil_statistics(ensemble, direction, checkpoints, kernel):
    """Directional and radial iterated-logarithm statistics.

    ``W_t = <X_t, r> / sqrt(2 <X^r>_t loglog <X^r>_t)`` and
    ``R_t = |X_t| / sqrt(2 t loglog t)`` at each checkpoint, with
    running maxima of their absolute values.  Checkpoints must exceed
    ``e^e`` so the iterated logarithm is positive.  ``kernel`` supplies
    ``a(x)``, and ``<X^r>_t = r' (int_0^t a(X_s) ds) r``.  The report is
    degenerate when ``<X^r>_t`` exceeds ``e`` at no checkpoint of any
    path, so that no ``W_t`` is defined.
    """
    return lil_reduction(direction, checkpoints, kernel).feed(
        ensemble.paths).result()


def lil_reduction(direction, checkpoints, kernel):
    """:func:`lil_statistics` as a :class:`Reduction`."""
    checkpoints = np.asarray(checkpoints, dtype=float)
    if np.any(checkpoints < EE):
        raise RangeError(f"checkpoints must be >= e^e ~ {EE:.3f}")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def step(paths):
        xs = np.array([states_at(p, checkpoints) for p in paths])
        qv = _integrated_a(paths, kernel, checkpoints) @ direction @ direction
        pos = qv > math.e
        denomW = np.where(
            pos, np.sqrt(2.0 * qv * np.log(np.maximum(np.log(
                np.maximum(qv, math.e)), 1e-300))), np.inf
        )
        W = np.where(pos, xs @ direction / denomW, 0.0)
        R = np.linalg.norm(xs, axis=2) / np.sqrt(
            2.0 * checkpoints * np.log(np.log(checkpoints)))
        return W, R, pos.any(axis=1)

    def final(rows):
        W, R, defined = rows
        run_W = np.maximum.accumulate(np.abs(W), axis=1)[:, -1]
        run_R = np.maximum.accumulate(R, axis=1)[:, -1]
        return LILReport(checkpoints, direction, W, R, run_W, run_R,
                         degenerate=not defined.any())

    return Reduction(step, final)
