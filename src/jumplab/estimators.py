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
from .kernels import CompoundPoissonAtoms
from .quadrature import integrate_radial, sphere_nodes
from .simulator import states_at

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


def _visited_states(path, t):
    """States and holding times on [0, t], exact piecewise-constant."""
    times = path.jump_times
    k = int(np.searchsorted(times, t, side="right"))
    cut = np.concatenate([[0.0], times[:k], [t]])
    holds = np.diff(cut)
    if k == 0:
        states = path.x0[None, :]
    else:
        states = np.vstack([
            path.x0,
            path.x0 + np.cumsum(path.jump_vectors[:k], axis=0),
        ])
    return states, holds


def predictable_integral(path, fn, t, constant_value=None):
    """``int_0^t f(X_s) ds`` for scalar ``f``, exact for pure-jump paths.

    ``constant_value`` short-circuits state-independent integrands.
    """
    if constant_value is not None:
        return constant_value * t
    states, holds = _visited_states(path, t)
    vals = np.array([fn(s) for s in states])
    return float(np.dot(holds, vals))


def _quadratic_form(kernel, direction):
    """``x -> r' a(x) r`` with the isotropic shortcut, plus its constant
    value when the kernel is state-independent (else None)."""
    direction = np.asarray(direction, dtype=float)

    if kernel.isotropic:
        def form(x):
            return kernel.second_moment(x).value / kernel.d \
                * float(np.dot(direction, direction))
    else:
        def form(x):
            a = kernel.diffusion_matrix(x).a
            return float(direction @ a @ direction)

    const = form(tuple([0.0] * kernel.d)) \
        if kernel.is_state_independent() else None
    return form, const


def _diag_form(kernel, i):
    e = np.zeros(kernel.d)
    e[i] = 1.0
    return _quadratic_form(kernel, e)


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
    tail_lower_bound: float
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
    d = kernel.d
    deltas = np.array([states_at(p, [t])[0] - p.x0 for p in paths])
    lhs_samples = deltas**2
    lhs, lhs_se = _mean_se(lhs_samples)
    rhs = np.zeros(d)
    for i in range(d):
        form, const = _diag_form(kernel, i)
        vals = np.array([
            predictable_integral(p, form, t, const) for p in paths
        ])
        rhs[i] = vals.mean()
    denom = np.where(np.abs(rhs) > 0, np.abs(rhs), 1.0)
    rel = (lhs - rhs) / denom
    return MomentIdentityReport(t, len(paths), lhs, lhs_se, rhs, rel)


def qv_comparison(ensemble, kernel, t):
    """Realized minus predictable quadratic variation, all (i, j)."""
    paths = ensemble.paths
    d = kernel.d
    n = len(paths)
    realized = np.zeros((n, d, d))
    predictable = np.zeros((n, d, d))
    forms = {}
    for i in range(d):
        for j in range(i, d):
            if i == j:
                forms[(i, j)] = _diag_form(kernel, i)
            else:
                # polarization: a_ij = (q(ei+ej) - q(ei) - q(ej)) / 2
                e = np.zeros(d)
                e[i] = e[j] = 1.0
                fij, cij = _quadratic_form(kernel, e)
                fi, ci = _diag_form(kernel, i)
                fj, cj = _diag_form(kernel, j)

                def off(x, fij=fij, fi=fi, fj=fj):
                    return 0.5 * (fij(x) - fi(x) - fj(x))

                coff = 0.5 * (cij - ci - cj) if cij is not None else None
                forms[(i, j)] = (off, coff)
    for k, p in enumerate(paths):
        times = p.jump_times
        cut = int(np.searchsorted(times, t, side="right"))
        zs = p.jump_vectors[:cut]
        if len(zs):
            realized[k] = zs.T @ zs
        for (i, j), (fn, const) in forms.items():
            v = predictable_integral(p, fn, t, const)
            predictable[k, i, j] = v
            predictable[k, j, i] = v
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
    d = kernel.d
    ux = u.u(x)
    gx = np.asarray(u.grad(x), dtype=float)
    total = 0.0
    for comp in kernel.components:
        if isinstance(comp, CompoundPoissonAtoms):
            for w, z in comp.atoms:
                z = np.asarray(z)
                corr = float(np.dot(gx, z)) if np.linalg.norm(z) < 1.0 \
                    else 0.0
                total += w * (u.u(x + z) - ux - corr)
            continue
        r_lo, r_hi = comp.support(d)
        pts, wts = sphere_nodes(d)
        for theta, w in zip(pts, wts):
            def integrand(r, th=theta):
                z = r * th
                dens = comp.density(x, z, d)
                if dens == 0.0:
                    return 0.0
                corr = float(np.dot(gx, z)) if r < 1.0 else 0.0
                return (u.u(x + z) - ux - corr) * dens * r ** (d - 1)

            # integrand ~ r^2 * density * r^{d-1} ~ r^{1-alpha} near 0
            sing = 1.0 - 2.0 + 1e-6 if r_lo == 0.0 else 0.0
            res = integrate_radial(integrand, r_lo, r_hi, sing,
                                   rtol=1e-9, max_evals=200_000)
            total += w * res.value
    return total


def generator_martingale_test(ensemble, kernel, u, t):
    """z-test of ``E[u(X_t) - u(x0) - int_0^t Lu(X_s) ds] = 0``."""
    if isinstance(u, str):
        u = TEST_FUNCTIONS[u]
    paths = ensemble.paths
    cache = {}
    samples = []
    for p in paths:
        xt = states_at(p, [t])[0]
        states, holds = _visited_states(p, t)
        # Lu is cached by the state rounded to 12 decimals; a path's
        # states are rounded together in one call
        vals = []
        for x, rounded in zip(states, np.round(states, 12)):
            key = tuple(rounded)
            if key not in cache:
                cache[key] = apply_generator(kernel, u, x)
            vals.append(cache[key])
        integral = float(np.dot(holds, np.array(vals)))
        samples.append(u.u(xt) - u.u(p.x0) - integral)
    samples = np.array(samples)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(len(samples))) \
        if len(samples) > 1 else 0.0
    z = mean / se if se > 0 else 0.0
    return GeneratorMartingaleReport(t, len(paths), u.name, mean, se, z)


def lil_statistics(ensemble, direction, checkpoints, lambda_hat, Lambda_hat,
                   tail_lower_bound=0.0, kernel=None):
    """Directional and radial iterated-logarithm statistics.

    ``W_t = <X_t, r> / sqrt(2 <X^r>_t loglog <X^r>_t)`` and
    ``R_t = |X_t| / sqrt(2 t loglog t)`` at each checkpoint, with
    running maxima of their absolute values.  Checkpoints must exceed
    ``e^e`` so the iterated logarithm is positive.  ``kernel`` supplies
    the state-dependent quadratic form; omitted, ``<X^r>_t`` falls back
    to ``lambda_hat * t`` (exact for state-independent kernels with
    ``lambda_hat = Lambda_hat``).
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
    form = const = None
    if kernel is not None:
        form, const = _quadratic_form(kernel, direction)
    for k, p in enumerate(paths):
        xs = states_at(p, checkpoints)
        proj = xs @ direction
        norms = np.linalg.norm(xs, axis=1)
        if kernel is not None:
            qv = np.array([
                predictable_integral(p, form, t, const) for t in checkpoints
            ])
        else:
            qv = lambda_hat * checkpoints
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
        lambda_hat, Lambda_hat, tail_lower_bound,
        degenerate=degenerate,
    )
