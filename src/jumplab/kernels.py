"""State-dependent jumping kernels and their moment calculus.

A :class:`KernelSpec` is a sum of components, each a family with known
structure: small-jump stable-like power laws on ``0 < |z| < 1``,
big-jump power laws or stretched exponentials on ``|z| >= 1``, finite
atomic measures, cone restrictions of an isotropic base, and
Hunt-difference kernels ``J(x, x+z)``.  Power-law and atomic moments
are evaluated in closed form; everything else falls back to the radial
x spherical product quadrature.
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
from .quadrature import (
    DEFAULT_MAX_EVALS,
    DEFAULT_RTOL,
    QuadratureResult,
    integrate_radial,
    sphere_nodes,
)

__all__ = [
    "KernelSpec",
    "StableLikeSmall",
    "BigJumpPowerLaw",
    "BigJumpStretchedExp",
    "CompoundPoissonAtoms",
    "ConeRestriction",
    "HuntDifference",
    "EnvelopePair",
    "DiffusionMatrix",
    "BassConstant",
    "bass_constant",
    "hunt_decompose",
    "surface_area",
]

_CONE_REJECT_CAP = 100_000


# the moments ask for it at every proposal, so it is computed once per d
@functools.cache
def surface_area(d):
    """Surface measure of the unit sphere in R^d (2, 2*pi, 4*pi)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class BassConstant:
    alpha: float
    d: int
    value: float


def bass_constant(alpha, d):
    """Normalizing constant of the variable-order fractional generator.

    ``C_alpha = alpha 2^{alpha-1} Gamma((alpha+d)/2) /
    (pi^{d/2} Gamma(1-alpha/2))``; positive for ``alpha`` in (0, 2).
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    value = (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((alpha + d) / 2.0)
        / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0))
    )
    return BassConstant(alpha, d, value)


@dataclass(frozen=True)
class DiffusionMatrix:
    x: tuple
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
#   density(x, z, d)             -- atoms raise
#   radial_profile(x, d)         -- isotropic families only: the density
#                                   as a function r -> rho(r) of |z|, with
#                                   the coefficients at x evaluated once
#   second_moment(x, d), tail_mass(x, eps, d), dropped_variance(x, eps, d)
#                                -- QuadratureResults
#   drift_tail(x, eps, d)        -- (int_{|z|>=eps} z N(x, dz), error bound)
#   diffusion(x, d)              -- (int z z^T N(x, dz), error bound)
#   tail_sampler(d, eps)         -- draw(rng, x) and draw_many(rng, x, n)
#   generator_terms(u, x, ux, gx, d) -- yields its terms of Lu(x), where
#                                      ux = u(x) and gx = grad u(x)


class _DensityComponent:
    """The generator terms of a component with a density: one radial
    quadrature per sphere node."""

    atomic = False

    def generator_terms(self, u, x, ux, gx, d):
        r_lo, r_hi = self.support(d)
        # integrand ~ r^2 * density * r^{d-1} ~ r^{1-alpha} near 0
        sing = 1.0 - 2.0 + 1e-6 if r_lo == 0.0 else 0.0
        pts, wts = sphere_nodes(d)
        for theta, w in zip(pts, wts):
            def integrand(r, th=theta):
                z = r * th
                dens = self.density(x, z, d)
                if dens == 0.0:
                    return 0.0
                corr = float(np.dot(gx, z)) if r < 1.0 else 0.0
                return (u(x + z) - ux - corr) * dens * r ** (d - 1)

            res = integrate_radial(integrand, r_lo, r_hi, sing,
                                   rtol=1e-9, max_evals=200_000)
            yield w * res.value


class _Isotropic(_DensityComponent):
    """What the isotropic families share.  Each family supplies
    ``support``, ``radial_profile``, its moments, and the inverse CDF
    ``tail_radius(u, x, eps)`` of its tail radius or a sampler of its
    own."""

    odd_symmetric = True
    isotropic = True

    def density(self, x, z, d):
        r = float(np.linalg.norm(z))
        lo, hi = self.support(d)
        # off the support the coefficients at x are not evaluated
        if r <= 0.0 or r < lo or r >= hi:
            return 0.0
        return self.radial_profile(x, d)(r)

    def drift_tail(self, x, eps, d):
        # isotropic densities integrate to zero by symmetry
        return np.zeros(d), 0.0

    def diffusion(self, x, d):
        # off-diagonals vanish, diagonal = moment / d
        res = self.second_moment(x, d)
        return (res.value / d) * np.eye(d), res.error_bound

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
            cv *= bass_constant(a, d).value
        return cv, a

    def support(self, d):
        return (0.0, 1.0)

    def radial_profile(self, x, d):
        cv, a = self._coeff(x, d)
        p = -d - a
        return lambda r: cv * r**p if 0.0 < r < 1.0 else 0.0

    def second_moment(self, x, d):
        cv, a = self._coeff(x, d)
        return QuadratureResult(cv * surface_area(d) / (2.0 - a), 0.0, 1)

    def tail_mass(self, x, eps, d):
        if eps >= 1.0:
            return QuadratureResult(0.0, 0.0, 1)
        cv, a = self._coeff(x, d)
        value = cv * surface_area(d) * (eps ** (-a) - 1.0) / a
        return QuadratureResult(value, 0.0, 1)

    def dropped_variance(self, x, eps, d):
        cv, a = self._coeff(x, d)
        e = min(eps, 1.0)
        return QuadratureResult(
            cv * surface_area(d) * e ** (2.0 - a) / (2.0 - a), 0.0, 1
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

    def second_moment(self, x, d):
        cv, b = self._coeff(x)
        if b <= 2.0:
            raise DivergentIntegral(
                f"big-jump second moment diverges: beta1(x)={b} <= 2 "
                f"at x={tuple(x)}"
            )
        return QuadratureResult(cv * surface_area(d) / (b - 2.0), 0.0, 1)

    def tail_mass(self, x, eps, d):
        cv, b = self._coeff(x)
        m = max(eps, 1.0)
        return QuadratureResult(cv * surface_area(d) * m ** (-b) / b, 0.0, 1)

    def dropped_variance(self, x, eps, d):
        return QuadratureResult(0.0, 0.0, 1)

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

    def _radial_moment(self, x, power, lo, d):
        cv, b = self._coeff(x)
        res = integrate_radial(
            lambda r: r ** (d - 1 + power) * math.exp(-self.lam * r**b),
            lo, math.inf, 0.0,
        )
        return QuadratureResult(cv * surface_area(d) * res.value,
                                cv * surface_area(d) * res.error_bound,
                                res.evaluations)

    def second_moment(self, x, d):
        return self._radial_moment(x, 2, 1.0, d)

    def tail_mass(self, x, eps, d):
        return self._radial_moment(x, 0, max(eps, 1.0), d)

    def dropped_variance(self, x, eps, d):
        return QuadratureResult(0.0, 0.0, 1)

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
class CompoundPoissonAtoms:
    """Finite atomic measure ``sum_k w_k delta_{z_k}``, atoms off the origin."""

    atoms: tuple  # of (weight, z-vector) pairs

    isotropic = False
    atomic = True
    coefficients = ()

    def __post_init__(self):
        norm = []
        for w, z in self.atoms:
            zv = np.asarray(z, dtype=float)
            if w < 0:
                raise ValueError(f"atom weight {w} must be >= 0")
            if not np.any(zv):
                raise ValueError("atoms must exclude the origin")
            norm.append((float(w), tuple(zv)))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def odd_symmetric(self):
        for w, z in self.atoms:
            neg = tuple(-c for c in z)
            if not any(
                abs(w2 - w) < 1e-15 and z2 == neg for w2, z2 in self.atoms
            ):
                return False
        return True

    def density(self, x, z, d):
        raise AtomicKernelError("atomic components have no density")

    def second_moment(self, x, d):
        value = sum(w * float(np.dot(z, z)) for w, z in self.atoms)
        return QuadratureResult(value, 0.0, 1)

    def tail_mass(self, x, eps, d):
        value = sum(w for w, z in self.atoms if np.linalg.norm(z) >= eps)
        return QuadratureResult(value, 0.0, 1)

    def drift_tail_exact(self, x, eps, d):
        total = np.zeros(d)
        for w, z in self.atoms:
            if np.linalg.norm(z) >= eps:
                total += w * np.asarray(z)
        return total

    def drift_tail(self, x, eps, d):
        return self.drift_tail_exact(x, eps, d), 0.0

    def diffusion_exact(self, x, d):
        a = np.zeros((d, d))
        for w, z in self.atoms:
            zv = np.asarray(z)
            a += w * np.outer(zv, zv)
        return a

    def diffusion(self, x, d):
        return self.diffusion_exact(x, d), 0.0

    def dropped_variance(self, x, eps, d):
        value = sum(
            w * float(np.dot(z, z))
            for w, z in self.atoms
            if np.linalg.norm(z) < eps
        )
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

    @property
    def odd_symmetric(self):
        return self.symmetric and self.base.odd_symmetric

    @property
    def coefficients(self):
        return self.base.coefficients

    def support(self, d):
        return self.base.support(d)

    def density(self, x, z, d):
        z = np.asarray(z, dtype=float)
        if not self.predicate(z):
            return 0.0
        return self.base.density(x, z, d)

    def _angular_moment(self, x, power, lo, d, total, weight, size):
        """``total`` plus the sum, node by node, over sphere nodes ``theta``
        of ``w weight(theta) int_lo r^{d-1+power} rho(r) 1_A(r theta) dr``.

        Exact along the radius (the indicator is evaluated at each
        radial node); the returned ``(sum, error, evaluations)`` bound
        includes the indicator edge's angular error, ``size(sum)`` times
        the node spacing."""
        r_lo, r_hi = self.base.support(d)
        lo = max(lo, r_lo)
        if lo >= r_hi:
            return total, 0.0, 1
        pts, wts = sphere_nodes(d)
        error = 0.0
        evals = 0
        sing = -1.0 + 1e-6 if r_lo == 0.0 else 0.0
        rho = self.base.radial_profile(x, d)
        predicate = self.predicate
        p = d - 1 + power
        for theta, w in zip(pts, wts):
            res = integrate_radial(
                lambda r, th=theta: (
                    rho(r) * r**p * (1.0 if predicate(r * th) else 0.0)
                ),
                lo, r_hi, sing, DEFAULT_RTOL,
                max(2000, DEFAULT_MAX_EVALS // len(wts)),
            )
            total += w * res.value * weight(theta)
            error += w * res.error_bound
            evals += res.evaluations
        # angular resolution of the indicator edge (exact in d=1)
        if d > 1:
            error += size(total) * (2.0 / len(wts))
        return total, error, evals

    def _scalar_moment(self, x, power, lo, d):
        return QuadratureResult(*self._angular_moment(
            x, power, lo, d, 0.0, lambda th: 1.0, abs))

    def second_moment(self, x, d):
        return self._scalar_moment(x, 2, 0.0, d)

    def tail_mass(self, x, eps, d):
        return self._scalar_moment(x, 0, eps, d)

    def drift_tail(self, x, eps, d):
        vec, err, _ = self._angular_moment(
            x, 1, eps, d, np.zeros(d), lambda th: th,
            lambda v: float(np.linalg.norm(v)))
        return vec, err

    def diffusion(self, x, d):
        a, err, _ = self._angular_moment(
            x, 2, 0.0, d, np.zeros((d, d)), lambda th: np.outer(th, th),
            lambda m: float(np.trace(m)))
        return a, err

    def dropped_variance(self, x, eps, d):
        r_lo, _ = self.base.support(d)
        if eps <= r_lo:
            return QuadratureResult(0.0, 0.0, 1)
        full = self.second_moment(x, d)
        tail = self._scalar_moment(x, 2, eps, d)
        return QuadratureResult(
            max(full.value - tail.value, 0.0),
            full.error_bound + tail.error_bound,
            full.evaluations + tail.evaluations,
        )

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

    def _radial_moment(self, x, power, lo, d, hi=math.inf):
        cv = self.c(x)
        # near 0 the integrand behaves like r^{power-1-alpha(0+)}
        sing = power - 1.0 - self.alpha_r((1e-12,)) if lo == 0.0 else 0.0
        res = integrate_radial(
            lambda r: r ** (power - 1.0 - self.alpha_r((r,))),
            lo, hi, sing,
        )
        s = surface_area(d)
        return QuadratureResult(cv * s * res.value, cv * s * res.error_bound,
                                res.evaluations)

    def second_moment(self, x, d):
        return self._radial_moment(x, 2, 0.0, d)

    def tail_mass(self, x, eps, d):
        return self._radial_moment(x, 0, eps, d)

    def dropped_variance(self, x, eps, d):
        return self._radial_moment(x, 2, 0.0, d, eps)

    def tail_sampler(self, d, eps):
        return _RadialSampler(_HuntRadialTable(self.alpha_r, eps).radius,
                              d, eps)

    def j(self, x, y, d):
        """The two-point kernel value ``J(x, y)``."""
        r = float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))
        if r <= 0.0:
            raise DomainError("J(x, y) requires x != y")
        return self.c(x) * r ** (-d - self.alpha_r((r,)))


class _HuntRadialTable:
    """Numerical inverse CDF for the radial law ``r^{-1-alpha(r)}`` on
    ``[eps, R]``; the shape does not depend on the state, only the
    total mass does, so one table serves every state."""

    def __init__(self, alpha_r, eps, n=4096):
        # extend until the remaining tail is negligible
        R = max(4.0, 1.0 / eps)
        while True:
            tail = integrate_radial(
                lambda r: r ** (-1.0 - alpha_r((r,))), R, math.inf, 0.0
            ).value
            body = integrate_radial(
                lambda r: r ** (-1.0 - alpha_r((r,))), eps, R, 0.0
            ).value
            if tail <= 1e-12 * body:
                break
            R *= 4.0
        grid = np.exp(np.linspace(math.log(eps), math.log(R), n))
        dens = np.array([r ** (-1.0 - alpha_r((r,))) for r in grid])
        mids = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(mids)])
        self.grid = grid
        self.cdf = cdf / cdf[-1]

    def radius(self, u, x, eps):
        return np.interp(u, self.cdf, self.grid)


def hunt_decompose(kernel, x, y, d=None):
    """Split ``J(x, y)`` into symmetric and antisymmetric parts.

    Returns ``(J, Js, Ja)`` with ``Js = (J(x,y)+J(y,x))/2`` and
    ``Ja = (J(x,y)-J(y,x))/2``.
    """
    if not isinstance(kernel, HuntDifference):
        raise TypeError("hunt_decompose requires a Hunt-difference component")
    if d is None:
        d = len(np.atleast_1d(x))
    jxy = kernel.j(x, y, d)
    jyx = kernel.j(y, x, d)
    return jxy, 0.5 * (jxy + jyx), 0.5 * (jxy - jyx)


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
    def has_atoms(self):
        return any(c.atomic for c in self.components)

    @property
    def odd_symmetric(self):
        return all(c.odd_symmetric for c in self.components)

    def is_state_independent(self):
        return all(fn.is_constant()
                   for c in self.components for fn in c.coefficients)

    def density(self, x, z):
        """Total density at (x, z); rejects kernels with atomic parts."""
        z = np.asarray(z, dtype=float)
        if not np.any(z):
            raise ValueError("density is undefined at z = 0")
        if self.has_atoms:
            raise AtomicKernelError(
                "kernel contains atomic components; densities are undefined"
            )
        return sum(c.density(x, z, self.d) for c in self.components)

    def _sum(self, moment, *args):
        """The sum over components of a QuadratureResult ``moment``."""
        total = QuadratureResult(0.0, 0.0, 0)
        for c in self.components:
            total = total + getattr(c, moment)(*args, self.d)
        return total

    def second_moment(self, x):
        """``int |z|^2 N(x, dz)`` with an error bound."""
        return self._sum("second_moment", x)

    def drift_tail(self, x, eps):
        """``int_{|z| >= eps} z N(x, dz)`` as ``(vector, error_bound)``.

        Odd-symmetric components contribute an exact zero.
        """
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        vec = np.zeros(self.d)
        err = 0.0
        for c in self.components:
            if not c.odd_symmetric:
                v, e = c.drift_tail(x, eps, self.d)
                vec += v
                err += e
        return vec, err

    def diffusion_matrix(self, x):
        """``a_ij(x) = int z_i z_j N(x, dz)`` with a quadrature error."""
        a = np.zeros((self.d, self.d))
        err = 0.0
        for c in self.components:
            m, e = c.diffusion(x, self.d)
            a += m
            err += e
        a = 0.5 * (a + a.T)
        x_t = tuple(float(v) for v in np.atleast_1d(x))
        return DiffusionMatrix(x_t, a, err)

    def total_mass_tail(self, x, eps):
        """``N(x, {|z| >= eps})`` with an error bound."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        return self._sum("tail_mass", x, eps)

    def dropped_variance(self, x, eps):
        """``int_{|z| < eps} |z|^2 N(x, dz)`` lost to truncation."""
        return self._sum("dropped_variance", x, eps)


@dataclass(frozen=True)
class EnvelopePair:
    """State-free lower/upper envelope kernels for the sandwich condition."""

    nu1: KernelSpec
    nu2: KernelSpec

    def __post_init__(self):
        if self.nu1 is not None and not self.nu1.is_state_independent():
            raise ValueError("nu1 must be state-independent")
        if not self.nu2.is_state_independent():
            raise ValueError("nu2 must be state-independent")
        if self.nu1 is not None and self.nu1.d != self.nu2.d:
            raise ValueError("envelope dimensions disagree")
