"""State-dependent jumping kernels and their moment calculus.

A :class:`KernelSpec` is a sum of components, each a family with known
structure: small-jump stable-like power laws on ``0 < |z| < 1``,
big-jump power laws or stretched exponentials on ``|z| >= 1``, finite
atomic measures, cone restrictions of an isotropic base, and
Hunt-difference kernels ``J(x, x+z)``.  Power-law and atomic moments
are evaluated in closed form, the others by radial quadrature.  Every
moment, the drift and the diffusion matrix included, is one banded
moment of some power and angular order; a density component's is its
radial moment times a table of angular sums over the sphere nodes, and
only the generator integrates node by node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientFn
from .errors import (
    AtomicKernelError,
    DivergentIntegral,
    DomainError,
    EnvelopeViolation,
)
from .quadrature import QuadratureResult, integrate_radial, sphere_nodes

__all__ = [
    "KernelSpec",
    "StableLikeSmall",
    "BigJumpPowerLaw",
    "BigJumpStretchedExp",
    "CompoundPoissonAtoms",
    "ConeRestriction",
    "HuntDifference",
    "DiffusionMatrix",
    "bass_constant",
    "surface_area",
]

_CONE_REJECT_CAP = 100_000


# the moments ask for it at every proposal, so it is computed once per d
@functools.cache
def surface_area(d):
    """Surface measure of the unit sphere in R^d (2, 2*pi, 4*pi)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def bass_constant(alpha, d):
    """Normalizing constant of the variable-order fractional generator.

    ``C_alpha = alpha 2^{alpha-1} Gamma((alpha+d)/2) /
    (pi^{d/2} Gamma(1-alpha/2))``; positive for ``alpha`` in (0, 2).
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((alpha + d) / 2.0)
        / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0))
    )


@dataclass(frozen=True)
class DiffusionMatrix:
    a: np.ndarray
    quadrature_error: float


def _uniform_direction(rng, d, n=None):
    if d == 1:
        u = rng.random(n)
        return np.where(u < 0.5, -1.0, 1.0)[..., None] if n is not None \
            else np.array([-1.0 if u < 0.5 else 1.0])
    shape = (n, d) if n is not None else (d,)
    v = rng.standard_normal(shape)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    # a zero draw has probability zero; guard anyway
    norm[norm == 0] = 1.0
    return v / norm


# --- components --------------------------------------------------------------
#
# Every component implements one protocol, so that KernelSpec, the
# simulator and the estimators only sum over components:
#   coefficients                 -- its coefficients of the state (a cone's
#                                   are its base's)
#   odd_symmetric / isotropic / atomic flags
#   moment(x, power, lo, hi, d, order=0)
#                                -- the QuadratureResult of
#                                   int_{lo <= |z| < hi} |z|^power
#                                   theta^{(x) order} N(x, dz), theta =
#                                   z/|z|: a scalar, d-vector or d x d
#                                   matrix for order 0, 1 or 2; an empty
#                                   band is zero with no error
#   second_moment(x, d), tail_mass(x, eps, d), dropped_variance(x, eps, d)
#                                -- the bands [0, inf), [eps, inf) and
#                                   [0, eps) of moment at order 0, defined
#                                   once in _BandedMoments
#   tail_sampler(d, eps)         -- draw(rng, x) and draw_many(rng, x, n)
#   generator_terms(u, x, ux, gx, d) -- yields its terms of Lu(x), where
#                                      ux = u(x) and gx = grad u(x)
#
# A component with a density rho(|z|) 1_A(z), A closed under scaling,
# describes it by four things, from which _DensityComponent builds its
# moments and its generator terms in one loop over the sphere nodes:
#   support(d)                   -- (r_lo, r_hi): the density vanishes for
#                                   |z| outside [r_lo, r_hi)
#   radial_profile(x, d)         -- the density as a function r -> rho(r)
#                                   of |z|, with the coefficients at x
#                                   evaluated once
#   radial_moment(x, power, lo, hi, d)
#                                -- the order-0 moment of rho(|z|) over
#                                   the whole sphere (a cone's base's)
#   inside(z)                    -- whether z lies in A: a cone's
#                                   predicate, always true for the
#                                   isotropic families
# Its moment of order k is radial_moment times m_k of _angular_table(d) =
# ((m0, m1, m2), sizes, edge): the sums over the sphere nodes of
# w 1_A(theta) {1, theta, theta theta^T} / |S|, their sizes (|m0|, |m1|,
# trace m2), and the relative error of the indicator edge.


_EMPTY_BAND = QuadratureResult(0.0, 0.0, 1)


class _BandedMoments:
    """The three moments the library asks for, as bands of ``moment``."""

    def second_moment(self, x, d):
        return self.moment(x, 2, 0.0, math.inf, d)

    def tail_mass(self, x, eps, d):
        return self.moment(x, 0, eps, math.inf, d)

    def dropped_variance(self, x, eps, d):
        return self.moment(x, 2, 0.0, eps, d)


@functools.cache
def _isotropic_table(d):
    # the whole sphere, exactly: no mean direction, covariance I/d
    return (1.0, np.zeros(d), np.eye(d) / d), (1.0, 0.0, 1.0), 0.0


class _DensityComponent(_BandedMoments):
    """A component with a density ``rho(|z|) 1_A(z)``."""

    atomic = False

    def _angular_table(self, d):
        return _isotropic_table(d)

    def inside(self, z):
        return True

    def moment(self, x, power, lo, hi, d, order=0):
        """The radial moment of ``power`` over ``[lo, hi)`` times the
        angular sum ``m_order``; the radial and the indicator edge's
        errors scale with the size of ``m_order``."""
        res = self.radial_moment(x, power, lo, hi, d)
        # the whole sphere has m0 = 1 exactly: thinning asks for a tail
        # mass at every proposal
        if self.isotropic and not order:
            return res
        sums, sizes, edge = self._angular_table(d)
        return QuadratureResult(
            res.value * sums[order],
            (res.error_bound + edge * abs(res.value)) * sizes[order],
            res.evaluations)

    def generator_terms(self, u, x, ux, gx, d):
        lo, hi = self.support(d)
        # the integrand at the origin behaves like r^{1-alpha}
        sing = -1.0 + 1e-6 if lo == 0.0 else 0.0
        rho = self.radial_profile(x, d)
        inside = self.inside
        pts, wts = sphere_nodes(d)
        for theta, w in zip(pts, wts):
            def integrand(r, th=theta):
                z = r * th
                if not inside(z) or (rho_r := rho(r)) == 0.0:
                    return 0.0
                corr = float(np.dot(gx, z)) if r < 1.0 else 0.0
                return (u(x + z) - ux - corr) * rho_r * r ** (d - 1)

            # the module global, so that a wrapper installed on it sees
            # every radial integral
            yield w * integrate_radial(integrand, lo, hi, sing, 1e-9,
                                       200_000).value


class _Isotropic(_DensityComponent):
    """What the isotropic families share.  Each family supplies
    ``support``, ``radial_profile``, ``radial_moment``, and the inverse CDF
    ``tail_radius(u, x, eps)`` of its tail radius or a sampler of its
    own."""

    odd_symmetric = True
    isotropic = True

    def tail_sampler(self, d, eps):
        return _RadialSampler(self.tail_radius, d, eps)


class _RadialSampler:
    """An isotropic tail law: ``radius(u, x, eps)`` times a uniform
    direction.

    ``radius`` takes a float ``u`` in :meth:`draw` and an array in
    :meth:`draw_many`.  Numpy's array ``power`` can differ from Python's
    ``float ** float`` in the last bit, so single draws must not go
    through arrays: that would change the paths of state-dependent
    kernels.
    """

    def __init__(self, radius, d, eps):
        self.radius = radius
        self.d = d
        self.eps = eps

    def _draw(self, rng, x, u):
        return self.radius(u, x, self.eps) * _uniform_direction(rng, self.d)

    def draw(self, rng, x):
        return self._draw(rng, x, rng.random())

    def draw_many(self, rng, x, n):
        r = self.radius(rng.random(n), x, self.eps)
        return r[:, None] * _uniform_direction(rng, self.d, n)


@dataclass(frozen=True)
class StableLikeSmall(_Isotropic):
    """Density ``c(x) [C_{alpha(x)}] / |z|^{d+alpha(x)}`` on ``0 < |z| < 1``."""

    c: CoefficientFn
    alpha: CoefficientFn
    bass_normalized: bool = False

    @property
    def coefficients(self):
        return (self.c, self.alpha)

    def _coeff(self, x, d):
        a = self.alpha(x)
        if not 0.0 < a < 2.0:
            raise DomainError(f"alpha(x)={a} outside (0, 2) at x={tuple(x)}")
        cv = self.c(x)
        if self.bass_normalized:
            cv *= bass_constant(a, d)
        return cv, a

    def support(self, d):
        return (0.0, 1.0)

    def radial_profile(self, x, d):
        cv, a = self._coeff(x, d)
        p = -d - a
        return lambda r: cv * r**p if 0.0 < r < 1.0 else 0.0

    def radial_moment(self, x, power, lo, hi, d):
        # the band is clipped by comparisons: thinning asks for a tail
        # mass at every proposal
        if hi > 1.0:
            hi = 1.0
        if lo >= hi:
            return _EMPTY_BAND
        cv, a = self._coeff(x, d)
        q = power - a
        if lo == 0.0 and q <= 0.0:
            raise DivergentIntegral(
                f"stable-like moment of power {power} diverges at 0: "
                f"alpha(x)={a} >= {power} at x={tuple(x)}"
            )
        if q == 0.0:
            return QuadratureResult(
                cv * surface_area(d) * math.log(hi / lo), 0.0, 1
            )
        return QuadratureResult(
            cv * surface_area(d) * (hi**q - lo**q) / q, 0.0, 1
        )

    def tail_radius(self, u, x, eps):
        # inverse CDF of r^{-1-alpha} on [eps, 1)
        a = self.alpha(x)
        lo = eps ** (-a)
        return (lo - u * (lo - 1.0)) ** (-1.0 / a)


@dataclass(frozen=True)
class BigJumpPowerLaw(_Isotropic):
    """Density ``c0(x) / |z|^{d+beta1(x)}`` on ``|z| >= 1``."""

    c0: CoefficientFn
    beta1: CoefficientFn

    @property
    def coefficients(self):
        return (self.c0, self.beta1)

    def _coeff(self, x):
        b = self.beta1(x)
        if b <= 0.0:
            raise DomainError(f"beta1(x)={b} must be positive")
        return self.c0(x), b

    def support(self, d):
        return (1.0, math.inf)

    def radial_profile(self, x, d):
        cv, b = self._coeff(x)
        p = -d - b
        return lambda r: 0.0 if r < 1.0 else cv * r**p

    def radial_moment(self, x, power, lo, hi, d):
        if lo < 1.0:
            lo = 1.0
        if lo >= hi:
            return _EMPTY_BAND
        cv, b = self._coeff(x)
        if hi == math.inf and b <= power:
            what = ("second moment" if power == 2
                    else f"moment of power {power}")
            raise DivergentIntegral(
                f"big-jump {what} diverges: beta1(x)={b} <= {power} "
                f"at x={tuple(x)}"
            )
        q = power - b
        if q == 0:
            return QuadratureResult(
                cv * surface_area(d) * math.log(hi / lo), 0.0, 1
            )
        return QuadratureResult(
            cv * surface_area(d) * (hi**q - lo**q) / q, 0.0, 1
        )

    def tail_radius(self, u, x, eps):
        # inverse CDF of r^{-1-beta1} on [max(eps, 1), inf)
        return max(eps, 1.0) * (1.0 - u) ** (-1.0 / self.beta1(x))


@dataclass(frozen=True)
class BigJumpStretchedExp(_Isotropic):
    """Density ``c0(x) exp(-lam |z|^{beta2(x)})`` on ``|z| >= 1``."""

    c0: CoefficientFn
    lam: float
    beta2: CoefficientFn

    @property
    def coefficients(self):
        return (self.c0, self.beta2)

    def _coeff(self, x):
        b = self.beta2(x)
        if b <= 0.0:
            raise DomainError(f"beta2(x)={b} must be positive")
        if self.lam <= 0.0:
            raise DomainError(f"lambda={self.lam} must be positive")
        return self.c0(x), b

    def support(self, d):
        return (1.0, math.inf)

    def radial_profile(self, x, d):
        cv, b = self._coeff(x)
        neg_lam = -self.lam
        return lambda r: 0.0 if r < 1.0 else cv * math.exp(neg_lam * r**b)

    def radial_moment(self, x, power, lo, hi, d):
        if lo < 1.0:
            lo = 1.0
        if lo >= hi:
            return _EMPTY_BAND
        cv, b = self._coeff(x)
        res = integrate_radial(
            lambda r: r ** (d - 1 + power) * math.exp(-self.lam * r**b),
            lo, hi, 0.0,
        )
        return QuadratureResult(cv * surface_area(d) * res.value,
                                cv * surface_area(d) * res.error_bound,
                                res.evaluations)

    def tail_sampler(self, d, eps):
        return _RejectionSampler(self._rejection_radius, d, eps)

    def _rejection_radius(self, rng, u, x, eps, d):
        b = self.beta2(x)
        lam = self.lam
        m = max(eps, 1.0)
        # rejection against a Pareto envelope r^{-1-p} on [m, inf):
        # density r^{d-1} e^{-lam r^b} <= M r^{-1-p} with the maximum of
        # r^{d+p} e^{-lam r^b} attained at ((d+p)/(lam b))^{1/b}
        p = 1.0
        rstar = max(((d + p) / (lam * b)) ** (1.0 / b), m)
        logM = (d + p) * math.log(rstar) - lam * rstar**b
        while True:
            r = m * (1.0 - u) ** (-1.0 / p)
            logf = (d - 1) * math.log(r) - lam * r**b
            logg = -(1.0 + p) * math.log(r)
            if math.log(rng.random() + 1e-300) <= logf - logg - logM:
                return r
            u = rng.random()


class _RejectionSampler(_RadialSampler):
    """A radial law without a closed-form inverse CDF:
    ``radius(rng, u, x, eps, d)`` starts from ``u`` and takes further
    uniforms from ``rng``, so each jump's direction follows its radius."""

    def _draw(self, rng, x, u):
        r = self.radius(rng, u, x, self.eps, self.d)
        return r * _uniform_direction(rng, self.d)

    def draw_many(self, rng, x, n):
        # the n first uniforms come in one call, then each jump in turn
        return np.array([self._draw(rng, x, u) for u in rng.random(n)])


@dataclass(frozen=True)
class CompoundPoissonAtoms(_BandedMoments):
    """Finite atomic measure ``sum_k w_k delta_{z_k}``, atoms off the origin."""

    atoms: tuple  # of (weight, z-vector) pairs

    isotropic = False
    atomic = True
    coefficients = ()

    def __post_init__(self):
        norm, tensors = [], []
        for w, z in self.atoms:
            zv = np.array(z, dtype=float)
            if w < 0:
                raise ValueError(f"atom weight {w} must be >= 0")
            if not np.any(zv):
                raise ValueError("atoms must exclude the origin")
            norm.append((float(w), tuple(zv)))
            # what moment needs of each atom: w, |z|^2, |z| (which is
            # np.linalg.norm(z), as the sampler tests) and z^{(x) order}
            r2 = float(np.dot(zv, zv))
            tensors.append((float(w), r2, math.sqrt(r2),
                            (1.0, zv, np.outer(zv, zv))))
        object.__setattr__(self, "atoms", tuple(norm))
        object.__setattr__(self, "_tensors", tuple(tensors))

    @property
    def odd_symmetric(self):
        for w, z in self.atoms:
            neg = tuple(-c for c in z)
            if not any(
                abs(w2 - w) < 1e-15 and z2 == neg for w2, z2 in self.atoms
            ):
                return False
        return True

    def moment(self, x, power, lo, hi, d, order=0):
        value = np.zeros((d,) * order) if order else 0.0
        for w, r2, r, zk in self._tensors:
            if lo <= r < hi:
                value += w * r2 ** ((power - order) / 2) * zk[order]
        return QuadratureResult(value, 0.0, 1)

    def tail_sampler(self, d, eps):
        return _AtomSampler(self.atoms, eps)

    def generator_terms(self, u, x, ux, gx, d):
        for w, z in self.atoms:
            z = np.asarray(z)
            corr = float(np.dot(gx, z)) if np.linalg.norm(z) < 1.0 else 0.0
            yield w * (u(x + z) - ux - corr)


class _AtomSampler:
    """Picks one of the atoms with ``|z| >= eps`` by weight."""

    def __init__(self, atoms, eps):
        pairs = [(w, z) for w, z in atoms if np.linalg.norm(z) >= eps]
        weights = np.array([w for w, _ in pairs])
        self._matrix = np.array([z for _, z in pairs], dtype=float)
        # same cdf construction as Generator.choice(p=...), so the
        # searchsorted draws below consume the identical stream
        cdf = (weights / weights.sum()).cumsum()
        self._cdf = cdf / cdf[-1]

    def draw(self, rng, x):
        k = int(self._cdf.searchsorted(rng.random(), side="right"))
        rng.random()  # keep the draw count uniform across families
        return self._matrix[k].copy()

    def draw_many(self, rng, x, n):
        # n index uniforms then n filler uniforms, drawn in one call
        u = rng.random(2 * n)
        return self._matrix[self._cdf.searchsorted(u[:n], side="right")]


@dataclass(frozen=True)
class ConeRestriction(_DensityComponent):
    """An isotropic base density multiplied by the indicator of a set A.

    The symmetry flag is declared by the caller, not verified here;
    the validators provide a sampling audit.  ``symmetric`` means
    ``A = -A``.
    """

    base: object
    predicate: object  # callable z -> bool
    symmetric: bool = False

    isotropic = False

    def __post_init__(self):
        if getattr(self.base, "atomic", False):
            raise AtomicKernelError(
                "cone restriction of an atomic component is not supported"
            )
        if not getattr(self.base, "isotropic", False):
            raise ValueError("cone restriction requires an isotropic base")
        # the angular table of each dimension, computed on first use
        object.__setattr__(self, "_tables", {})

    @property
    def odd_symmetric(self):
        return self.symmetric and self.base.odd_symmetric

    @property
    def coefficients(self):
        return self.base.coefficients

    def support(self, d):
        return self.base.support(d)

    def radial_profile(self, x, d):
        return self.base.radial_profile(x, d)

    def inside(self, z):
        return self.predicate(z)

    def radial_moment(self, x, power, lo, hi, d):
        return self.base.radial_moment(x, power, lo, hi, d)

    def _angular_table(self, d):
        table = self._tables.get(d)
        if table is None:
            pts, wts = sphere_nodes(d)
            w = wts * np.array([bool(self.predicate(th)) for th in pts]) \
                / surface_area(d)
            # elementwise: a first BLAS call would raise the peak RSS
            sums = (float(w.sum()), (w[:, None] * pts).sum(0),
                    (w[:, None, None] * pts[:, :, None]
                     * pts[:, None, :]).sum(0))
            sizes = (sums[0], math.hypot(*sums[1]), float(np.trace(sums[2])))
            # angular resolution of the indicator edge (exact in d=1)
            table = self._tables[d] = (sums, sizes,
                                       2.0 / len(wts) if d > 1 else 0.0)
        return table

    def tail_sampler(self, d, eps):
        return _ConeSampler(self, d, eps)


class _ConeSampler:
    """The base tail law, rejected until a draw lands in the cone."""

    def __init__(self, cone, d, eps):
        self.predicate = cone.predicate
        self.base = cone.base.tail_sampler(d, eps)

    def draw(self, rng, x):
        for _ in range(_CONE_REJECT_CAP):
            z = self.base.draw(rng, x)
            if self.predicate(z):
                return z
        raise EnvelopeViolation(
            "cone predicate rejected every proposal; "
            "restricted set may have negligible mass"
        )

    def draw_many(self, rng, x, n):
        # rejection against the base law, one jump at a time
        return np.array([self.draw(rng, x) for _ in range(n)])


@dataclass(frozen=True)
class HuntDifference(_Isotropic):
    """``J(x, y) = c(x) / |x-y|^{d + alpha(|x-y|)}`` seen as ``N(x, dz)``.

    ``alpha_r`` is a radial coefficient evaluated at ``r = |z|``; the
    density in ``z`` depends on ``|z|`` only, so the component is
    isotropic and symmetric.
    """

    c: CoefficientFn
    alpha_r: CoefficientFn

    @property
    def coefficients(self):
        # alpha_r is a function of r = |z|, not of the state
        return (self.c,)

    def support(self, d):
        return (0.0, math.inf)

    def radial_profile(self, x, d):
        cv = self.c(x)
        alpha_r = self.alpha_r
        return lambda r: 0.0 if r <= 0.0 else cv * r ** (-d - alpha_r((r,)))

    def radial_integral(self, power, lo, hi):
        """``int_lo^hi r^(power-1-alpha_r(r)) dr``, the state-free factor
        of ``radial_moment``."""
        # near 0 the integrand behaves like r^{power-1-alpha(0+)}
        sing = power - 1.0 - self.alpha_r((1e-12,)) if lo == 0.0 else 0.0
        return integrate_radial(
            lambda r: r ** (power - 1.0 - self.alpha_r((r,))),
            lo, hi, sing,
        )

    def radial_moment(self, x, power, lo, hi, d):
        cv = self.c(x)
        res = self.radial_integral(power, lo, hi)
        s = surface_area(d)
        return QuadratureResult(cv * s * res.value, cv * s * res.error_bound,
                                res.evaluations)

    def tail_sampler(self, d, eps):
        return _RadialSampler(_HuntRadialTable(self, eps).radius, d, eps)


class _HuntRadialTable:
    """Numerical inverse CDF for the radial law ``r^{-1-alpha(r)}`` on
    ``[eps, R]``; the shape does not depend on the state, only the
    total mass does, so one table serves every state."""

    def __init__(self, hunt, eps, n=4096):
        # extend until the remaining tail is negligible
        R = max(4.0, 1.0 / eps)
        while (hunt.radial_integral(0, R, math.inf).value
               > 1e-12 * hunt.radial_integral(0, eps, R).value):
            R *= 4.0
        alpha_r = hunt.alpha_r
        grid = np.exp(np.linspace(math.log(eps), math.log(R), n))
        dens = np.array([r ** (-1.0 - alpha_r((r,))) for r in grid])
        mids = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(mids)])
        self.grid = grid
        self.cdf = cdf / cdf[-1]

    def radius(self, u, x, eps):
        return np.interp(u, self.cdf, self.grid)


# --- the composite kernel ----------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A jumping kernel as a sum of components on R^d minus the origin."""

    d: int
    components: tuple

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def odd_symmetric(self):
        return all(c.odd_symmetric for c in self.components)

    def is_state_independent(self):
        return all(fn.is_constant()
                   for c in self.components for fn in c.coefficients)

    def moment(self, x, power, lo, hi, order=0, components=None):
        """The sum over ``components`` (all by default) of their banded
        moment: a QuadratureResult whose value is a scalar, d-vector or
        d x d matrix for ``order`` 0, 1 or 2."""
        total = QuadratureResult(
            np.zeros((self.d,) * order) if order else 0.0, 0.0, 0)
        for c in self.components if components is None else components:
            total = total + c.moment(x, power, lo, hi, self.d, order)
        return total

    def second_moment(self, x):
        """``int |z|^2 N(x, dz)`` with an error bound."""
        return self.moment(x, 2, 0.0, math.inf)

    def drift_tail(self, x, eps):
        """``int_{|z| >= eps} z N(x, dz)`` as ``(vector, error_bound)``.

        Odd-symmetric components contribute an exact zero and are
        skipped: a power law's band of power 1 may diverge."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        res = self.moment(x, 1, eps, math.inf, 1, [
            c for c in self.components if not c.odd_symmetric])
        return res.value, res.error_bound

    def diffusion_matrix(self, x):
        """``a_ij(x) = int z_i z_j N(x, dz)`` with a quadrature error."""
        res = self.moment(x, 2, 0.0, math.inf, 2)
        return DiffusionMatrix(0.5 * (res.value + res.value.T),
                               res.error_bound)

    def total_mass_tail(self, x, eps):
        """``N(x, {|z| >= eps})`` with an error bound."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        return self.moment(x, 0, eps, math.inf)

    def dropped_variance(self, x, eps):
        """``int_{|z| < eps} |z|^2 N(x, dz)`` lost to truncation."""
        return self.moment(x, 2, 0.0, eps)
