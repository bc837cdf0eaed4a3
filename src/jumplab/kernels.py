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

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientFn
from .errors import AtomicKernelError, DivergentIntegral, DomainError
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


# --- components --------------------------------------------------------------
#
# Each component implements:
#   radial_density(x, r, d)  -- density along any direction (isotropic
#                               families only; atoms raise)
#   density(x, z, d)
#   support(d)               -- (r_lo, r_hi) of the radial support
#   second_moment(x, d)      -- QuadratureResult
#   tail_mass(x, eps, d)     -- QuadratureResult for N(x, {|z| >= eps})
#   abs_drift_tail(x, eps, d)-- QuadratureResult for int_{|z|>=eps} |z| N
#   dropped_variance(x, eps, d)
#   odd_symmetric / isotropic flags


@dataclass(frozen=True)
class StableLikeSmall:
    """Density ``c(x) [C_{alpha(x)}] / |z|^{d+alpha(x)}`` on ``0 < |z| < 1``."""

    c: CoefficientFn
    alpha: CoefficientFn
    bass_normalized: bool = False

    odd_symmetric = True
    isotropic = True
    atomic = False

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

    def radial_density(self, x, r, d):
        if not 0.0 < r < 1.0:
            return 0.0
        cv, a = self._coeff(x, d)
        return cv * r ** (-d - a)

    def density(self, x, z, d):
        return self.radial_density(x, float(np.linalg.norm(z)), d)

    def second_moment(self, x, d):
        cv, a = self._coeff(x, d)
        return QuadratureResult(cv * surface_area(d) / (2.0 - a), 0.0, 1)

    def tail_mass(self, x, eps, d):
        if eps >= 1.0:
            return QuadratureResult(0.0, 0.0, 1)
        cv, a = self._coeff(x, d)
        value = cv * surface_area(d) * (eps ** (-a) - 1.0) / a
        return QuadratureResult(value, 0.0, 1)

    def abs_drift_tail(self, x, eps, d):
        if eps >= 1.0:
            return QuadratureResult(0.0, 0.0, 1)
        cv, a = self._coeff(x, d)
        if a == 1.0:
            value = cv * surface_area(d) * (-math.log(eps))
        else:
            value = cv * surface_area(d) * (1.0 - eps ** (1.0 - a)) / (1.0 - a)
        return QuadratureResult(value, 0.0, 1)

    def dropped_variance(self, x, eps, d):
        cv, a = self._coeff(x, d)
        e = min(eps, 1.0)
        return QuadratureResult(
            cv * surface_area(d) * e ** (2.0 - a) / (2.0 - a), 0.0, 1
        )


@dataclass(frozen=True)
class BigJumpPowerLaw:
    """Density ``c0(x) / |z|^{d+beta1(x)}`` on ``|z| >= 1``."""

    c0: CoefficientFn
    beta1: CoefficientFn

    odd_symmetric = True
    isotropic = True
    atomic = False

    def _coeff(self, x):
        b = self.beta1(x)
        if b <= 0.0:
            raise DomainError(f"beta1(x)={b} must be positive")
        return self.c0(x), b

    def support(self, d):
        return (1.0, math.inf)

    def radial_density(self, x, r, d):
        if r < 1.0:
            return 0.0
        cv, b = self._coeff(x)
        return cv * r ** (-d - b)

    def density(self, x, z, d):
        return self.radial_density(x, float(np.linalg.norm(z)), d)

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

    def abs_drift_tail(self, x, eps, d):
        cv, b = self._coeff(x)
        if b <= 1.0:
            raise DivergentIntegral(
                f"big-jump first moment diverges: beta1(x)={b} <= 1"
            )
        m = max(eps, 1.0)
        return QuadratureResult(
            cv * surface_area(d) * m ** (1.0 - b) / (b - 1.0), 0.0, 1
        )

    def dropped_variance(self, x, eps, d):
        return QuadratureResult(0.0, 0.0, 1)


@dataclass(frozen=True)
class BigJumpStretchedExp:
    """Density ``c0(x) exp(-lam |z|^{beta2(x)})`` on ``|z| >= 1``."""

    c0: CoefficientFn
    lam: float
    beta2: CoefficientFn

    odd_symmetric = True
    isotropic = True
    atomic = False

    def _coeff(self, x):
        b = self.beta2(x)
        if b <= 0.0:
            raise DomainError(f"beta2(x)={b} must be positive")
        if self.lam <= 0.0:
            raise DomainError(f"lambda={self.lam} must be positive")
        return self.c0(x), b

    def support(self, d):
        return (1.0, math.inf)

    def radial_density(self, x, r, d):
        if r < 1.0:
            return 0.0
        cv, b = self._coeff(x)
        return cv * math.exp(-self.lam * r**b)

    def density(self, x, z, d):
        return self.radial_density(x, float(np.linalg.norm(z)), d)

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

    def abs_drift_tail(self, x, eps, d):
        return self._radial_moment(x, 1, max(eps, 1.0), d)

    def dropped_variance(self, x, eps, d):
        return QuadratureResult(0.0, 0.0, 1)


@dataclass(frozen=True)
class CompoundPoissonAtoms:
    """Finite atomic measure ``sum_k w_k delta_{z_k}``, atoms off the origin."""

    atoms: tuple  # of (weight, z-vector) pairs

    isotropic = False
    atomic = True

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
        pool = [(w, z) for w, z in self.atoms]
        for w, z in self.atoms:
            neg = tuple(-c for c in z)
            if not any(
                abs(w2 - w) < 1e-15 and z2 == neg for w2, z2 in pool
            ):
                return False
        return True

    def support(self, d):
        radii = [np.linalg.norm(z) for _, z in self.atoms]
        return (min(radii), max(radii))

    def radial_density(self, x, r, d):
        raise AtomicKernelError("atomic components have no density")

    def density(self, x, z, d):
        raise AtomicKernelError("atomic components have no density")

    def second_moment(self, x, d):
        value = sum(w * float(np.dot(z, z)) for w, z in self.atoms)
        return QuadratureResult(value, 0.0, 1)

    def tail_mass(self, x, eps, d):
        value = sum(w for w, z in self.atoms if np.linalg.norm(z) >= eps)
        return QuadratureResult(value, 0.0, 1)

    def abs_drift_tail(self, x, eps, d):
        value = sum(
            w * float(np.linalg.norm(z))
            for w, z in self.atoms
            if np.linalg.norm(z) >= eps
        )
        return QuadratureResult(value, 0.0, 1)

    def drift_tail_exact(self, x, eps, d):
        total = np.zeros(d)
        for w, z in self.atoms:
            if np.linalg.norm(z) >= eps:
                total += w * np.asarray(z)
        return total

    def diffusion_exact(self, x, d):
        a = np.zeros((d, d))
        for w, z in self.atoms:
            zv = np.asarray(z)
            a += w * np.outer(zv, zv)
        return a

    def dropped_variance(self, x, eps, d):
        value = sum(
            w * float(np.dot(z, z))
            for w, z in self.atoms
            if np.linalg.norm(z) < eps
        )
        return QuadratureResult(value, 0.0, 1)


@dataclass(frozen=True)
class ConeRestriction:
    """An isotropic base density multiplied by the indicator of a set A.

    The symmetry flags are declared by the caller, not verified here;
    the validators provide a sampling audit.  ``symmetric`` means
    ``A = -A``.
    """

    base: object
    predicate: object  # callable z -> bool
    symmetric: bool = False
    permutation_symmetric: bool = False

    atomic = False
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

    def support(self, d):
        return self.base.support(d)

    def density(self, x, z, d):
        z = np.asarray(z, dtype=float)
        if not self.predicate(z):
            return 0.0
        return self.base.density(x, z, d)

    def _angular_integral(self, x, power, lo, d, rtol=DEFAULT_RTOL):
        """Sum over sphere nodes of the per-direction radial moment.

        Exact along the radius (the indicator is evaluated at each
        radial node); the angular error from the indicator edge is part
        of the reported bound.
        """
        r_lo, r_hi = self.base.support(d)
        lo = max(lo, r_lo)
        if lo >= r_hi:
            return QuadratureResult(0.0, 0.0, 1)
        pts, wts = sphere_nodes(d)
        value = 0.0
        error = 0.0
        evals = 0
        sing = -1.0 + 1e-6 if r_lo == 0.0 else 0.0
        for theta, w in zip(pts, wts):
            res = integrate_radial(
                lambda r, th=theta: (
                    self.base.radial_density(x, r, d)
                    * r ** (d - 1 + power)
                    * (1.0 if self.predicate(r * th) else 0.0)
                ),
                lo, r_hi, sing, rtol,
                max(2000, DEFAULT_MAX_EVALS // len(wts)),
            )
            value += w * res.value
            error += w * res.error_bound
            evals += res.evaluations
        # angular resolution of the indicator edge (exact in d=1)
        if d > 1:
            error += abs(value) * (2.0 / len(wts))
        return QuadratureResult(value, error, evals)

    def radial_density(self, x, r, d):
        raise ValueError("cone-restricted components are not isotropic")

    def second_moment(self, x, d):
        return self._angular_integral(x, 2, 0.0, d)

    def tail_mass(self, x, eps, d):
        return self._angular_integral(x, 0, eps, d)

    def abs_drift_tail(self, x, eps, d):
        return self._angular_integral(x, 1, eps, d)

    def drift_tail_quadrature(self, x, eps, d):
        r_lo, r_hi = self.base.support(d)
        lo = max(eps, r_lo)
        vec = np.zeros(d)
        err = 0.0
        if lo >= r_hi:
            return vec, err
        pts, wts = sphere_nodes(d)
        for theta, w in zip(pts, wts):
            res = integrate_radial(
                lambda r, th=theta: (
                    self.base.radial_density(x, r, d)
                    * r**d
                    * (1.0 if self.predicate(r * th) else 0.0)
                ),
                lo, r_hi, 0.0, DEFAULT_RTOL,
                max(2000, DEFAULT_MAX_EVALS // len(wts)),
            )
            vec += w * res.value * theta
            err += w * res.error_bound
        if d > 1:
            err += float(np.linalg.norm(vec)) * (2.0 / len(wts))
        return vec, err

    def diffusion_quadrature(self, x, d):
        r_lo, r_hi = self.base.support(d)
        a = np.zeros((d, d))
        err = 0.0
        pts, wts = sphere_nodes(d)
        sing = -1.0 + 1e-6 if r_lo == 0.0 else 0.0
        for theta, w in zip(pts, wts):
            res = integrate_radial(
                lambda r, th=theta: (
                    self.base.radial_density(x, r, d)
                    * r ** (d + 1)
                    * (1.0 if self.predicate(r * th) else 0.0)
                ),
                r_lo, r_hi, sing, DEFAULT_RTOL,
                max(2000, DEFAULT_MAX_EVALS // len(wts)),
            )
            a += w * res.value * np.outer(theta, theta)
            err += w * res.error_bound
        if d > 1:
            err += float(np.trace(a)) * (2.0 / len(wts))
        return a, err

    def dropped_variance(self, x, eps, d):
        r_lo, _ = self.base.support(d)
        if eps <= r_lo:
            return QuadratureResult(0.0, 0.0, 1)
        full = self._angular_integral(x, 2, 0.0, d)
        tail = self._angular_integral(x, 2, eps, d)
        return QuadratureResult(
            max(full.value - tail.value, 0.0),
            full.error_bound + tail.error_bound,
            full.evaluations + tail.evaluations,
        )


@dataclass(frozen=True)
class HuntDifference:
    """``J(x, y) = c(x) / |x-y|^{d + alpha(|x-y|)}`` seen as ``N(x, dz)``.

    ``alpha_r`` is a radial coefficient evaluated at ``r = |z|``; the
    density in ``z`` depends on ``|z|`` only, so the component is
    isotropic and symmetric.
    """

    c: CoefficientFn
    alpha_r: CoefficientFn

    odd_symmetric = True
    isotropic = True
    atomic = False

    def support(self, d):
        return (0.0, math.inf)

    def radial_density(self, x, r, d):
        if r <= 0.0:
            return 0.0
        return self.c(x) * r ** (-d - self.alpha_r((r,)))

    def density(self, x, z, d):
        return self.radial_density(x, float(np.linalg.norm(z)), d)

    def _radial_moment(self, x, power, lo, d):
        cv = self.c(x)
        # near 0 the integrand behaves like r^{power-1-alpha(0+)}
        sing = power - 1.0 - self.alpha_r((1e-12,)) if lo == 0.0 else 0.0
        res = integrate_radial(
            lambda r: r ** (power - 1.0 - self.alpha_r((r,))),
            lo, math.inf, sing,
        )
        s = surface_area(d)
        return QuadratureResult(cv * s * res.value, cv * s * res.error_bound,
                                res.evaluations)

    def second_moment(self, x, d):
        return self._radial_moment(x, 2, 0.0, d)

    def tail_mass(self, x, eps, d):
        return self._radial_moment(x, 0, eps, d)

    def abs_drift_tail(self, x, eps, d):
        return self._radial_moment(x, 1, eps, d)

    def dropped_variance(self, x, eps, d):
        cv = self.c(x)
        sing = 1.0 - self.alpha_r((1e-12,))
        res = integrate_radial(
            lambda r: r ** (1.0 - self.alpha_r((r,))), 0.0, eps, sing
        )
        s = surface_area(d)
        return QuadratureResult(cv * s * res.value, cv * s * res.error_bound,
                                res.evaluations)

    def j(self, x, y, d):
        """The two-point kernel value ``J(x, y)``."""
        r = float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))
        if r <= 0.0:
            raise DomainError("J(x, y) requires x != y")
        return self.c(x) * r ** (-d - self.alpha_r((r,)))


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

    @property
    def isotropic(self):
        return all(c.isotropic for c in self.components)

    def is_state_independent(self):
        for c in self.components:
            for name in ("c", "alpha", "c0", "beta1", "beta2", "alpha_r"):
                fn = getattr(c, name, None)
                if fn is not None and not fn.is_constant():
                    return False
            if isinstance(c, ConeRestriction):
                base = c.base
                for name in ("c", "alpha", "c0", "beta1", "beta2", "alpha_r"):
                    fn = getattr(base, name, None)
                    if fn is not None and not fn.is_constant():
                        return False
        return True

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

    def second_moment(self, x):
        """``int |z|^2 N(x, dz)`` with an error bound."""
        total = QuadratureResult(0.0, 0.0, 0)
        for c in self.components:
            total = total + c.second_moment(x, self.d)
        return total

    def drift_tail(self, x, eps):
        """``int_{|z| >= eps} z N(x, dz)`` as ``(vector, error_bound)``.

        Odd-symmetric kernels short-circuit to an exact zero.
        """
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        vec = np.zeros(self.d)
        err = 0.0
        for c in self.components:
            if c.odd_symmetric:
                continue
            if isinstance(c, CompoundPoissonAtoms):
                vec += c.drift_tail_exact(x, eps, self.d)
            elif isinstance(c, ConeRestriction):
                v, e = c.drift_tail_quadrature(x, eps, self.d)
                vec += v
                err += e
            else:
                # isotropic densities integrate to zero by symmetry
                continue
        return vec, err

    def diffusion_matrix(self, x):
        """``a_ij(x) = int z_i z_j N(x, dz)`` with a quadrature error."""
        d = self.d
        a = np.zeros((d, d))
        err = 0.0
        for c in self.components:
            if isinstance(c, CompoundPoissonAtoms):
                a += c.diffusion_exact(x, d)
            elif isinstance(c, ConeRestriction):
                m, e = c.diffusion_quadrature(x, d)
                a += m
                err += e
            else:
                # isotropic: off-diagonals vanish, diagonal = moment / d
                res = c.second_moment(x, d)
                a += (res.value / d) * np.eye(d)
                err += res.error_bound
        a = 0.5 * (a + a.T)
        x_t = tuple(float(v) for v in np.atleast_1d(x))
        return DiffusionMatrix(x_t, a, err)

    def total_mass_tail(self, x, eps):
        """``N(x, {|z| >= eps})`` with an error bound."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        total = QuadratureResult(0.0, 0.0, 0)
        for c in self.components:
            total = total + c.tail_mass(x, eps, self.d)
        return total

    def dropped_variance(self, x, eps):
        """``int_{|z| < eps} |z|^2 N(x, dz)`` lost to truncation."""
        total = QuadratureResult(0.0, 0.0, 0)
        for c in self.components:
            total = total + c.dropped_variance(x, eps, self.d)
        return total


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
