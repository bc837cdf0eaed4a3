"""Radial and spherical quadrature for jump-kernel integrands.

Kernel integrals reduce to a radial integral times a spherical one.
The radial integrand typically behaves like a power ``r^p`` with
``p > -1`` near the origin and decays at infinity; both ends are
handled with geometric shells (uniform steps in ``log r``), each shell
integrated by a Gauss-Kronrod 7/15 pair.  Shell contributions of a
convergent integral decay geometrically, which gives a cheap remainder
estimate and a robust divergence heuristic: shells that refuse to decay
over several consecutive levels signal a divergent integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, ToleranceNotMet

__all__ = [
    "QuadratureResult",
    "integrate_radial",
    "sphere_nodes",
    "DEFAULT_RTOL",
    "DEFAULT_MAX_EVALS",
]

DEFAULT_RTOL = 1e-8
DEFAULT_MAX_EVALS = 10**6

# shells that keep >= this fraction of the previous shell, for this many
# consecutive levels, are treated as evidence of divergence
_DIVERGENCE_RATIO = 0.98
_DIVERGENCE_LEVELS = 4
_MAX_SHELLS = 600


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    evaluations: int

    def __add__(self, other):
        return QuadratureResult(
            self.value + other.value,
            self.error_bound + other.error_bound,
            self.evaluations + other.evaluations,
        )


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XGK = np.array([
    0.99145537112081263920685469752632851664204433837033,
    0.94910791234275852452618968404785126240077093767062,
    0.86486442335976907278971278864092620121097230707409,
    0.74153118559939443986386477328078840707414764714139,
    0.58608723546769113029414483825872959843678075060436,
    0.40584515137739716690660641207696146334738201409937,
    0.20778495500789846760068940377324491347978440714517,
    0.0,
])
_WGK = np.array([
    0.02293532201052922496373200805896959199356081127575,
    0.06309209262997855329070066318920428666507115721155,
    0.10479001032225018383987632254151801744375665421383,
    0.14065325971552591874518959051023792039988975724800,
    0.16900472663926790282658342659855028410624490030294,
    0.19035057806478540991325640242101368282607807545536,
    0.20443294007529889241416199923464908471651760418072,
    0.20948214108472782801299917489171426369776208022370,
])
_WG = np.array([
    0.12948496616886969327061143267908201832858740225995,
    0.27970539148927666790146777142377958955665281962896,
    0.38183005050511894495036977548897513387836508353386,
    0.41795918367346938775510204081632653061224489795918,
])


def _gk15(f, a, b):
    """Gauss-Kronrod 7/15 estimate of ``\\int_a^b f`` with error estimate."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = np.concatenate((c - h * _XGK[:-1], [c], c + h * _XGK[:-1][::-1]))
    fv = np.array([f(t) for t in nodes])
    # kronrod: symmetric weights, center once
    wk = np.concatenate((_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]))
    resk = h * float(np.dot(wk, fv))
    # embedded gauss-7 uses every other kronrod node
    fg = fv[1:-1:2]
    wg = np.concatenate((_WG[:-1], [_WG[-1]], _WG[:-1][::-1]))
    resg = h * float(np.dot(wg, fg))
    err = abs(resk - resg)
    if err > 0:
        err = min(err, (200.0 * err) ** 1.5) if err < 1 else err
    return resk, err, len(nodes)


def _adaptive(f, a, b, tol, budget):
    """Adaptive bisection on [a, b] down to absolute tolerance ``tol``."""
    value, err, n = _gk15(f, a, b)
    stack = [(a, b, value, err)]
    total_v, total_e, evals = 0.0, 0.0, n
    while stack:
        a0, b0, v0, e0 = stack.pop()
        if e0 <= tol * (b0 - a0) / (b - a) + 1e-300 or evals + 30 > budget \
                or (b0 - a0) < 1e-14 * max(abs(a), abs(b), 1.0):
            total_v += v0
            total_e += e0
            continue
        m = 0.5 * (a0 + b0)
        v1, e1, n1 = _gk15(f, a0, m)
        v2, e2, n2 = _gk15(f, m, b0)
        evals += n1 + n2
        stack.append((a0, m, v1, e1))
        stack.append((m, b0, v2, e2))
    return total_v, total_e, evals


def _walk_shells(f, edge, factor, value, error, evals, rtol, max_evals,
                 what, where):
    """Add the geometric shells between ``edge`` and ``edge * factor^k``,
    k = 1, 2, ..., to the running ``(value, error, evals)`` until they
    stop contributing.  ``factor`` is 1/2 for shells shrinking toward the
    origin and 2 for shells growing toward infinity; ``what`` and
    ``where`` name the walk in the divergence and cap messages."""
    shells = []
    while True:
        nxt = edge * factor
        v, e, n = _adaptive(f, min(edge, nxt), max(edge, nxt),
                            rtol * max(abs(value), 1.0) * 0.1,
                            max_evals - evals)
        evals += n
        value += v
        error += e
        shells.append(v)
        edge = nxt
        k = len(shells)
        if k >= _DIVERGENCE_LEVELS + 1:
            ratios = [
                abs(shells[-i]) / abs(shells[-i - 1])
                for i in range(1, _DIVERGENCE_LEVELS + 1)
                if abs(shells[-i - 1]) > 0
            ]
            if (len(ratios) == _DIVERGENCE_LEVELS
                    and min(ratios) >= _DIVERGENCE_RATIO
                    and abs(shells[-1]) > rtol * max(abs(value), 1e-300)):
                raise DivergenceDetected(
                    f"{what} are not decaying "
                    f"(last {abs(shells[-1]):.3e} vs total {value:.3e})"
                )
        if abs(v) <= rtol * max(abs(value), 1e-300) and k >= 4:
            # geometric remainder estimate from the observed decay
            rho = abs(shells[-1]) / abs(shells[-2]) if abs(shells[-2]) > 0 else 0.0
            rho = min(rho, 0.9)
            error += abs(shells[-1]) * rho / (1.0 - rho)
            return value, error, evals
        if evals >= max_evals or k >= _MAX_SHELLS:
            raise ToleranceNotMet(f"evaluation cap reached {where}")


def integrate_radial(f, r_lo, r_hi, singular_exponent=0.0,
                     rtol=DEFAULT_RTOL, max_evals=DEFAULT_MAX_EVALS):
    """Integrate ``f(r) dr`` over ``(r_lo, r_hi)``, ``r_hi`` may be ``inf``.

    ``singular_exponent`` is the caller's assertion about the behaviour
    ``f(r) ~ r^p`` as ``r -> 0`` (only consulted when ``r_lo == 0``);
    ``p <= -1`` is rejected immediately as divergent.

    Raises :class:`DivergenceDetected` when shell contributions fail to
    decay, :class:`ToleranceNotMet` when the evaluation cap is reached
    first.
    """
    if r_lo < 0:
        raise ValueError("r_lo must be >= 0")
    if r_hi <= r_lo:
        return QuadratureResult(0.0, 0.0, 1)

    evals = 0
    value = 0.0
    error = 0.0

    if r_lo == 0.0 and singular_exponent <= -1.0:
        raise DivergenceDetected(
            f"radial integrand ~ r^{singular_exponent} is not integrable at 0"
        )

    if math.isfinite(r_hi) and r_lo > 0.0:
        v, e, n = _adaptive(f, r_lo, r_hi, rtol, max_evals)
        return QuadratureResult(v, e, n)

    if r_lo == 0.0:
        # shells shrinking toward the origin: [b0/2^{k+1}, b0/2^k]
        b0 = min(r_hi, 1.0)
        value, error, evals = _walk_shells(
            f, b0, 0.5, value, error, evals, rtol, max_evals,
            "shell contributions near 0", "near the origin")
        if math.isfinite(r_hi) and r_hi > b0:
            v, e, n = _adaptive(f, b0, r_hi, rtol * max(abs(value), 1.0),
                                max_evals - evals)
            evals += n
            value += v
            error += e

    if not math.isfinite(r_hi):
        # shells growing toward infinity: [a0 2^k, a0 2^{k+1}], from 1
        # when the origin was walked and from r_lo otherwise
        a0 = max(r_lo if r_lo > 0.0 else 1.0, 1e-12)
        if r_lo > 0.0 and r_lo < a0:
            v, e, n = _adaptive(f, r_lo, a0, rtol, max_evals - evals)
            evals += n
            value += v
            error += e
        value, error, evals = _walk_shells(
            f, a0, 2.0, value, error, evals, rtol, max_evals,
            "tail shell contributions", "in the tail")

    return QuadratureResult(value, error, max(evals, 1))


# --- spherical rules ---------------------------------------------------------

_N_CIRCLE = 64
_N_POLAR = 12
_N_AZIMUTH = 24

_cached_nodes = {}


def sphere_nodes(d):
    """Fixed quadrature nodes and weights for the unit sphere in R^d.

    Returns ``(points, weights)``; weights sum to the surface measure
    (2 for d=1, 2*pi for d=2, 4*pi for d=3).  The rules integrate the
    low-degree polynomial direction factors of moment integrals exactly.
    """
    if d in _cached_nodes:
        return _cached_nodes[d]
    if d == 1:
        pts = np.array([[-1.0], [1.0]])
        wts = np.array([1.0, 1.0])
    elif d == 2:
        theta = 2.0 * np.pi * (np.arange(_N_CIRCLE) + 0.5) / _N_CIRCLE
        pts = np.column_stack((np.cos(theta), np.sin(theta)))
        wts = np.full(_N_CIRCLE, 2.0 * np.pi / _N_CIRCLE)
    elif d == 3:
        # Gauss-Legendre in cos(polar) x uniform azimuth
        mu, wmu = np.polynomial.legendre.leggauss(_N_POLAR)
        phi = 2.0 * np.pi * (np.arange(_N_AZIMUTH) + 0.5) / _N_AZIMUTH
        pts = []
        wts = []
        for m, wm in zip(mu, wmu):
            s = math.sqrt(max(0.0, 1.0 - m * m))
            for p in phi:
                pts.append((s * math.cos(p), s * math.sin(p), m))
                wts.append(wm * 2.0 * np.pi / _N_AZIMUTH)
        pts = np.array(pts)
        wts = np.array(wts)
    else:
        raise ValueError(f"dimension {d} not supported (d must be 1, 2 or 3)")
    _cached_nodes[d] = (pts, wts)
    return pts, wts

