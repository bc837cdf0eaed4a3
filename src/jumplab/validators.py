"""Grid-based numerical checks of the sufficient conditions on a kernel.

Each check sweeps a finite state grid and returns a
:class:`CheckResult` with a verdict in ``{pass, advisory, fail}`` and
numeric evidence.  A fail always carries a witness point.  Verdicts are
relative to the grid: global suprema over all of R^d cannot be
certified by any finite procedure, so asymptotic conditions are graded
``advisory`` unless a closed-form sufficient condition (a constant
coefficient) upgrades them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegral, DomainError
from .kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    ConeRestriction,
    HuntDifference,
    surface_area,
)

__all__ = [
    "StateGrid",
    "CheckResult",
    "ValidationReport",
    "default_grid",
    "check_second_moment",
    "check_zero_drift",
    "check_ellipticity",
    "check_index_regularity",
    "check_big_jump_conditions",
    "check_hunt_conditions",
    "audit_cone_symmetry",
    "run_all",
]

DRIFT_TOL = 1e-7
DRIFT_EPSILONS = (1.0, 0.5, 0.1)
EIGEN_TOL = 1e-9

PASS = "pass"
FAIL = "fail"
ADVISORY = "advisory"


@dataclass(frozen=True)
class StateGrid:
    d: int
    points: tuple
    pair_radii: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("state grid must be non-empty")
        pts = tuple(
            tuple(float(c) for c in (p if hasattr(p, "__len__") else (p,)))
            for p in self.points
        )
        object.__setattr__(self, "points", pts)
        radii = tuple(float(r) for r in self.pair_radii)
        if any(radii[i + 1] >= radii[i] for i in range(len(radii) - 1)):
            raise ValueError("pair_radii must be strictly decreasing")
        object.__setattr__(self, "pair_radii", radii)


def default_grid(d, extent=None, n=None):
    """The default validation grid: 201 points on [-10, 10] in 1d,
    41^d tensor grids on [-5, 5]^d in higher dimension."""
    if extent is None:
        extent = 10.0 if d == 1 else 5.0
    if n is None:
        n = 201 if d == 1 else 41
    axis = np.linspace(-extent, extent, n)
    if d == 1:
        pts = [(float(v),) for v in axis]
    else:
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        pts = list(zip(*(m.ravel().tolist() for m in mesh)))
    radii = tuple(2.0 ** (-k) for k in range(1, 13))
    return StateGrid(d, tuple(pts), radii)


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    evidence: dict
    citation: str
    witness: tuple = None

    @property
    def failed(self):
        return self.verdict == FAIL


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, check):
        self.checks.append(check)
        return check

    @property
    def has_fail(self):
        return any(c.failed for c in self.checks)

    def to_text(self):
        lines = []
        for c in self.checks:
            lines.append(f"check {c.name}")
            lines.append(f"  verdict = {c.verdict}")
            lines.append(f"  condition = {c.citation}")
            if c.witness is not None:
                lines.append(f"  witness = {c.witness}")
            for k in sorted(c.evidence):
                v = c.evidence[k]
                lines.append(f"  {k} = {v!r}")
        return "\n".join(lines) + "\n"


def _grid_sample(points, cap=2048):
    """Deterministic subsample for O(n^2) pair statistics."""
    if len(points) <= cap:
        return list(points)
    stride = max(1, len(points) // cap)
    return list(points[::stride])


def _on_grid(fn, points, name, citation):
    """``fn`` at every grid point, or a FAIL of check ``name`` whose
    witness is the first point where it raises."""
    vals = []
    for p in points:
        try:
            vals.append(fn(p))
        except (DivergentIntegral, DomainError, IndexError) as exc:
            return CheckResult(name, FAIL, {"error": str(exc)}, citation,
                               witness=p)
    return vals


# --- individual checks -------------------------------------------------------


def check_second_moment(kernel, grid):
    """Finiteness of the second moment, uniformly over the grid."""
    name = "second_moment"
    citation = "uniform second moment of the jumping kernel"
    if isinstance(vals := _on_grid(kernel.second_moment, grid.points, name,
                                   citation), CheckResult):
        vals.evidence["grid_points"] = len(grid.points)
        return vals
    sup = -math.inf
    arg = None
    max_err = 0.0
    for x, res in zip(grid.points, vals):
        if res.value > sup:
            sup, arg = res.value, x
        max_err = max(max_err, res.error_bound)
    return CheckResult(
        name, PASS,
        {"sup": sup, "argmax": arg, "quadrature_error": max_err,
         "grid_points": len(grid.points)},
        citation,
    )


def check_zero_drift(kernel, grid):
    """Vanishing of the large-jump drift for every threshold."""
    name = "zero_drift"
    citation = "vanishing drift of jumps above every threshold"
    if kernel.odd_symmetric:
        return CheckResult(
            name, PASS,
            {"max_abs_drift": 0.0, "short_circuit": "odd symmetry",
             "grid_points": len(grid.points)},
            citation,
        )
    if isinstance(vals := _on_grid(
            lambda x: [float(np.max(np.abs(kernel.drift_tail(x, eps)[0])))
                       for eps in DRIFT_EPSILONS],
            grid.points, name, citation), CheckResult):
        return vals
    worst = 0.0
    worst_at = None
    for x, drifts in zip(grid.points, vals):
        for eps, m in zip(DRIFT_EPSILONS, drifts):
            if m > worst:
                worst = m
                worst_at = (x, eps)
    if worst <= DRIFT_TOL:
        return CheckResult(
            name, PASS,
            {"max_abs_drift": worst, "tolerance": DRIFT_TOL,
             "grid_points": len(grid.points)},
            citation,
        )
    return CheckResult(
        name, FAIL,
        {"max_abs_drift": worst, "tolerance": DRIFT_TOL},
        citation, witness=worst_at,
    )


def check_ellipticity(kernel, grid):
    """Uniform bounds on the eigenvalues of the second-moment matrix."""
    name = "ellipticity"
    citation = "uniform ellipticity of a_ij(x)"
    if isinstance(vals := _on_grid(kernel.diffusion_matrix, grid.points,
                                   name, citation), CheckResult):
        return vals
    lam = math.inf
    Lam = -math.inf
    lam_at = Lam_at = None
    max_err = 0.0
    for x, dm in zip(grid.points, vals):
        eig = np.linalg.eigvalsh(dm.a)
        if eig[0] < lam:
            lam, lam_at = float(eig[0]), x
        if eig[-1] > Lam:
            Lam, Lam_at = float(eig[-1]), x
        max_err = max(max_err, dm.quadrature_error)
    evidence = {
        "lambda_hat": lam, "Lambda_hat": Lam,
        "argmin": lam_at, "argmax": Lam_at,
        "quadrature_error": max_err, "grid_points": len(grid.points),
    }
    if lam > EIGEN_TOL:
        return CheckResult(name, PASS, evidence, citation)
    return CheckResult(name, FAIL, evidence, citation, witness=lam_at)


def _modulus_of_continuity(vals, points, radii):
    """Grid estimate of r -> sup over pairs within distance r of |f(x)-f(y)|,
    from the values ``vals`` of f at ``points``."""
    arr = np.array(_grid_sample(points))
    vals = np.array(_grid_sample(vals))
    if arr.ndim == 1:
        arr = arr[:, None]
    diff2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(diff2)
    vdiff = np.abs(vals[:, None] - vals[None, :])
    omega = []
    for r in radii:
        mask = (dist <= r) & (dist > 0)
        omega.append(float(vdiff[mask].max()) if mask.any() else 0.0)
    return omega


def check_index_regularity(alpha, grid):
    """Range and modulus-of-continuity conditions on the order function."""
    name = "index_regularity"
    citation = "variable order bounded in (0, 2) with a Dini modulus"
    radii = grid.pair_radii
    if isinstance(vals := _on_grid(alpha, grid.points, name, citation),
                  CheckResult):
        return vals
    vmin, vmax = min(vals), max(vals)
    if vmin <= 0.0 or vmax >= 2.0:
        arg = grid.points[vals.index(vmax if vmax >= 2.0 else vmin)]
        return CheckResult(
            name, FAIL,
            {"observed_min": vmin, "observed_max": vmax},
            citation, witness=arg,
        )

    if alpha.is_constant():
        return CheckResult(
            name, PASS,
            {"observed_min": vmin, "observed_max": vmax,
             "omega": [0.0] * len(radii),
             "note": "constant order: modulus vanishes identically"},
            citation,
        )

    omega = _modulus_of_continuity(vals, grid.points, radii)
    loglog_decay = [abs(math.log(r)) * w for r, w in zip(radii, omega)]
    # geometric radii: int_0^1 omega(r)/r dr ~ sum omega(r_k) * log 2
    dini_sum = sum(omega) * math.log(2.0)
    evidence = {
        "observed_min": vmin,
        "observed_max": vmax,
        "omega": omega,
        "log_weighted_omega": loglog_decay,
        "dini_sum_estimate": dini_sum,
        "note": "asymptotics below grid resolution are unverifiable; "
                "grid trend reported",
    }
    return CheckResult(name, ADVISORY, evidence, citation)


def check_big_jump_conditions(component, grid):
    """Envelope, continuity and zero-mean conditions for a big-jump family."""
    name = "big_jump"
    citation = "dominated, continuous, mean-zero big-jump density"
    if not isinstance(component, (BigJumpPowerLaw, BigJumpStretchedExp)):
        raise TypeError(
            f"not a big-jump component: {type(component).__name__}")
    power_law = isinstance(component, BigJumpPowerLaw)
    pts = grid.points
    beta = component.beta1 if power_law else component.beta2
    if isinstance(betas := _on_grid(beta, pts, name, citation), CheckResult):
        return betas
    if isinstance(c0s := _on_grid(component.c0, pts, name, citation),
                  CheckResult):
        return c0s
    inf_b = min(betas)
    cont = _continuity_probe(c0s) + _continuity_probe(betas)
    if power_law:
        sup_c = max(c0s)
        if inf_b <= 2.0:
            arg = pts[betas.index(inf_b)]
            return CheckResult(
                name, FAIL,
                {"inf_beta1": inf_b,
                 "error": "envelope second moment diverges for beta1 <= 2"},
                citation, witness=arg,
            )
        d = len(pts[0])
        envelope_moment = sup_c * surface_area(d) / (inf_b - 2.0)
        return CheckResult(
            name, PASS,
            {"inf_beta1": inf_b, "sup_c0": sup_c,
             "envelope_second_moment": envelope_moment,
             "continuity_probe": cont,
             "zero_mean": "exact (isotropic density)"},
            citation,
        )
    if inf_b <= 0.0 or component.lam <= 0.0:
        arg = pts[betas.index(inf_b)]
        return CheckResult(
            name, FAIL,
            {"inf_beta2": inf_b, "lambda": component.lam},
            citation, witness=arg,
        )
    return CheckResult(
        name, PASS,
        {"inf_beta2": inf_b, "lambda": component.lam,
         "continuity_probe": cont,
         "note": "stretched-exponential envelope always integrable",
         "zero_mean": "exact (isotropic density)"},
        citation,
    )


def _continuity_probe(vals):
    """Max increment between consecutive grid values; advisory evidence."""
    vals = _grid_sample(vals, cap=512)
    return max(
        (abs(a - b) for a, b in zip(vals, vals[1:])), default=0.0
    )


def check_hunt_conditions(component, grid):
    """Integrability and regularity conditions for a Hunt-difference kernel."""
    name = "hunt"
    citation = "integrable variable-order tail with controlled asymmetry"
    if not isinstance(component, HuntDifference):
        raise TypeError("check_hunt_conditions requires a Hunt component")
    radii = grid.pair_radii
    evidence = {}

    # int r^{1-alpha(r)} over (0, inf) and (0, 1), and int r^{-1-alpha(r)}
    # over [1, inf): the |z|^2 and tail-mass bands of one unit of c(x)
    try:
        radial, near, tail = (
            component.radial_integral(power, lo, hi).value
            for power, lo, hi in ((2, 0.0, math.inf), (2, 0.0, 1.0),
                                  (0, 1.0, math.inf)))
    except (DivergentIntegral, DomainError) as exc:
        return CheckResult(
            name, FAIL, {"error": f"radial second-moment integral: {exc}"},
            citation, witness=("radial",),
        )
    evidence["radial_integral"] = radial

    if isinstance(cs := _on_grid(component.c, grid.points, name, citation),
                  CheckResult):
        return cs
    c_min, c_max = min(cs), max(cs)
    if c_min <= 0.0:
        return CheckResult(
            name, FAIL, {"min_c": c_min}, citation,
            witness=grid.points[cs.index(c_min)],
        )
    evidence["c_range"] = (c_min, c_max)
    s = surface_area(len(grid.points[0]))

    # sup_x int (1 ^ |z|^2) Js <= sup c * S_d * int (1 ^ r^2) r^{-1-alpha}
    evidence["levy_type_bound"] = c_max * s * (near + tail)
    # tail mass is uniformly bounded: the L-infinity branch
    evidence["tail_mass_sup"] = c_max * s * tail

    # asymmetry: g_c(r) from grid pairs, bounded by a fitted Lipschitz slope
    if component.c.is_constant():
        evidence["gc"] = [0.0] * len(radii)
        evidence["asymmetry_integral_bound"] = 0.0
        evidence["note"] = "constant c: the kernel is symmetric, Ja = 0"
        return CheckResult(name, PASS, evidence, citation)

    gc = _modulus_of_continuity(cs, grid.points, radii)
    evidence["gc"] = gc
    slope = max((g / r for g, r in zip(gc, radii)), default=0.0)
    osc = c_max - c_min
    evidence["asymmetry_integral_bound"] = (
        s * (slope**2 * near + osc**2 * tail) / max(2.0 * c_min, 1e-300)
    )
    evidence["gc_lipschitz_slope"] = slope
    evidence["note"] = (
        "g_c estimated from grid pairs; below-resolution behaviour assumed "
        "Lipschitz"
    )
    return CheckResult(name, ADVISORY, evidence, citation)


def audit_cone_symmetry(component, z_samples):
    """Sampling audit of a cone's declared symmetry flags."""
    name = "cone_symmetry"
    citation = "declared symmetry of the restricted set"
    if not isinstance(component, ConeRestriction):
        raise TypeError("audit_cone_symmetry requires a cone component")
    if not component.symmetric:
        return CheckResult(
            name, ADVISORY, {"note": "no symmetry declared"}, citation
        )
    for z in z_samples:
        z = np.asarray(z, dtype=float)
        if bool(component.predicate(z)) != bool(component.predicate(-z)):
            return CheckResult(
                name, FAIL,
                {"error": "declared A = -A violated by sample"},
                citation, witness=tuple(z),
            )
    return CheckResult(
        name, PASS, {"samples": len(z_samples)}, citation
    )


def run_all(kernel, grid):
    """Run every grid check that applies to ``kernel`` and collect a
    report.  The cone symmetry audit needs jump samples ``z``; it is
    called on its own."""
    report = ValidationReport()
    report.add(check_second_moment(kernel, grid))
    report.add(check_zero_drift(kernel, grid))
    report.add(check_ellipticity(kernel, grid))
    for comp in kernel.components:
        # a cone is checked through the family of its base
        family = comp.base if isinstance(comp, ConeRestriction) else comp
        if isinstance(family, (BigJumpPowerLaw, BigJumpStretchedExp)):
            report.add(check_big_jump_conditions(family, grid))
        if isinstance(family, HuntDifference):
            report.add(check_hunt_conditions(family, grid))
        alpha = getattr(family, "alpha", None)
        if alpha is not None:
            report.add(check_index_regularity(alpha, grid))
    return report
