"""Experiment configuration: flat INI-style text, no code execution.

A config describes one kernel (a list of component sections), a
validation grid, simulation settings and the analyses to run::

    [kernel]
    dimension = 1
    components = small, big

    [component.small]
    family = stable_like_small
    c = 1.0
    alpha = 1 + 0.5/(1 + |x|^2)
    alpha_bounds = 1.0, 1.5

    [sim]
    t_end = 1.0
    epsilon = 0.1
    base_seed = 12345
    n_paths = 10000
    x0 = 0.0

Seeds are always explicit; there are no wall-clock defaults.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import coeffs, exprlang
from .errors import ConfigError, ExprSyntaxError, UnknownIdentifier
from .estimators import EE, TEST_FUNCTIONS
from .kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    CompoundPoissonAtoms,
    ConeRestriction,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
)
from .simulator import DROP, GAUSSIAN, SimConfig
from .validators import StateGrid, default_grid

__all__ = ["ExperimentConfig", "load_config", "config_hash"]


# picklable named predicates for cone restrictions
class FirstCoordinatePositive:
    symmetric = False

    def __call__(self, z):
        return float(z[0]) > 0.0


class FirstAxisCone:
    """|z_1| dominates the other coordinates; symmetric under z -> -z."""

    symmetric = True

    def __call__(self, z):
        # plain Python: the cone moments call this at every radial node
        first = abs(z[0])
        for c in z:
            if not first >= abs(c):
                return False
        return True


PREDICATES = {
    "first_positive": FirstCoordinatePositive,
    "first_axis": FirstAxisCone,
}


@dataclass
class AnalysisSpec:
    """An ``[analysis.<name>]`` section.  ``params`` holds every
    parameter the analysis reads, parsed and checked when the config is
    loaded, with defaults filled in."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    kernel: KernelSpec
    grid: StateGrid
    sim: SimConfig
    n_paths: int
    x0: tuple
    analyses: list
    write_paths: bool = True
    source_text: str = ""

    @property
    def hash(self):
        return config_hash(self.source_text)


def config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _fail(section, msg):
    raise ConfigError(f"[{section}] {msg}")


# radial coefficients (alpha_r) are functions of r = |z| alone; without
# declared bounds, their observed bounds are taken over these radii
_RADII = [(r,) for r in np.geomspace(1e-4, 1e4, 201)]


def _coeff(parser, section, key, d, points):
    """Coefficient ``key`` with its declared ``*_bounds``, or else the
    bounds observed at ``points``."""
    if not parser.has_option(section, key):
        _fail(section, f"missing coefficient {key!r}")
    raw = parser.get(section, key).strip().strip('"')
    try:
        expr = exprlang.parse(raw)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        _fail(section, f"{key} = {raw!r}: {exc}")
    if expr.max_coord() >= d:
        _fail(section, f"{key} references x[{expr.max_coord() + 1}] "
                       f"but d={d}")
    bkey = f"{key}_bounds"
    if parser.has_option(section, bkey):
        lo, hi = _floats(parser.get(section, bkey), 2, section, bkey)
    else:
        vals = [exprlang.evaluate(expr, p) for p in points]
        lo, hi = min(vals), max(vals)
    return coeffs.CoefficientFn(expr, lo, hi, raw)


def _floats(raw, n, section, key):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if n is not None and len(parts) != n:
        _fail(section, f"{key} needs {n} comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        _fail(section, f"{key} = {raw!r} is not numeric")


def _analysis_params(name, raw, d, t_end):
    """The parameters of analysis ``name`` from the text ``raw`` of its
    section: a typo or an impossible value fails here, before anything
    is validated, simulated or written."""
    section = f"analysis.{name}"

    def numbers(key, default, n=None):
        text = raw.get(key)
        return default if text is None else _floats(text, n, section, key)

    def number(key, default):
        return numbers(key, (default,), 1)[0]

    if name == "lil":
        t_start = number("t_start", 16.0)
        if t_start < EE:
            _fail(section, f"t_start must be >= e^e ~ {EE:.3f}")
        direction = numbers("direction", (1.0,))
        if len(direction) != d:
            _fail(section, "direction has wrong dimension")
        return {
            "t_start": t_start,
            "direction": direction,
            "tail_lower_bound": number("tail_lower_bound", 0.0),
            "band": numbers("band", None, 2),
            "coverage": number("coverage", 0.9),
        }
    # the paths end at t_end: past it there is nothing to estimate
    t = number("t", t_end)
    if not 0.0 <= t <= t_end:
        _fail(section, f"t = {t!r} lies outside [0, t_end = {t_end!r}]")
    params = {"t": t}
    if name == "moment_identity":
        params["rtol"] = number("rtol", 0.05)
    if name == "generator":
        fname = raw.get("function", "square_first").strip()
        if fname not in TEST_FUNCTIONS:
            _fail(section, f"unknown function {fname!r}; "
                           f"choose from {sorted(TEST_FUNCTIONS)}")
        params["function"] = fname
    return params


def _component(parser, section, d, grid_points):
    family = parser.get(section, "family", fallback=None)
    if family is None:
        _fail(section, "missing family")
    family = family.strip()
    if family == "stable_like_small":
        return StableLikeSmall(
            _coeff(parser, section, "c", d, grid_points),
            _coeff(parser, section, "alpha", d, grid_points),
            bass_normalized=parser.getboolean(
                section, "bass_normalized", fallback=False
            ),
        )
    if family == "big_jump_power_law":
        return BigJumpPowerLaw(
            _coeff(parser, section, "c0", d, grid_points),
            _coeff(parser, section, "beta1", d, grid_points),
        )
    if family == "big_jump_stretched_exp":
        lam = parser.getfloat(section, "lambda", fallback=None)
        if lam is None:
            _fail(section, "missing lambda")
        return BigJumpStretchedExp(
            _coeff(parser, section, "c0", d, grid_points),
            lam,
            _coeff(parser, section, "beta2", d, grid_points),
        )
    if family == "compound_poisson_atoms":
        raw = parser.get(section, "atoms", fallback=None)
        if raw is None:
            _fail(section, "missing atoms")
        atoms = []
        for entry in raw.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            w, _, zs = entry.partition(":")
            try:
                weight = float(w)
                z = tuple(float(c) for c in zs.split(","))
            except ValueError:
                _fail(section, f"bad atom entry {entry!r}")
            if len(z) != d:
                _fail(section, f"atom {entry!r} has wrong dimension")
            atoms.append((weight, z))
        return CompoundPoissonAtoms(tuple(atoms))
    if family == "cone_restriction":
        base_section = parser.get(section, "base", fallback=None)
        if base_section is None:
            _fail(section, "missing base section name")
        base = _component(parser, f"component.{base_section}", d, grid_points)
        pname = parser.get(section, "predicate", fallback=None)
        if pname not in PREDICATES:
            _fail(section, f"unknown predicate {pname!r}; "
                           f"choose from {sorted(PREDICATES)}")
        pred = PREDICATES[pname]()
        return ConeRestriction(base, pred, symmetric=pred.symmetric)
    if family == "hunt_difference":
        return HuntDifference(
            _coeff(parser, section, "c", d, grid_points),
            _coeff(parser, section, "alpha_r", 1, _RADII),
        )
    _fail(section, f"unknown family {family!r}")


def load_config(path):
    """Parse and cross-validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_section("kernel"):
        raise ConfigError("missing [kernel] section")
    d = parser.getint("kernel", "dimension", fallback=0)
    if d not in (1, 2, 3):
        _fail("kernel", f"dimension must be 1, 2 or 3, got {d}")

    grid = default_grid(d, parser.getfloat("grid", "extent", fallback=None),
                        parser.getint("grid", "points", fallback=None))
    raw = parser.get("kernel", "components", fallback=None)
    if raw is None:
        _fail("kernel", "missing components list")
    comps = []
    for name in [n.strip() for n in raw.split(",") if n.strip()]:
        section = f"component.{name}"
        if not parser.has_section(section):
            _fail("kernel", f"no section [{section}]")
        comps.append(_component(parser, section, d, grid.points))
    kernel = KernelSpec(d, tuple(comps))
    if parser.has_section("envelope"):
        # check_envelopes needs jump samples z, which a config cannot give
        _fail("envelope", "envelope checks are not run from configs; call "
                          "validators.check_envelopes with z samples")

    if not parser.has_section("sim"):
        raise ConfigError("missing [sim] section")
    if not parser.has_option("sim", "base_seed"):
        _fail("sim", "base_seed must be explicit")
    n_paths = parser.getint("sim", "n_paths", fallback=0)
    if n_paths <= 0:
        _fail("sim", f"n_paths must be positive, got {n_paths}")
    x0 = _floats(parser.get("sim", "x0", fallback="0"), None, "sim", "x0")
    if len(x0) != d:
        _fail("sim", f"x0 has {len(x0)} coordinates, d={d}")
    mode = parser.get("sim", "small_jump_mode", fallback=DROP).strip()
    if mode not in (DROP, GAUSSIAN):
        _fail("sim", f"unknown small_jump_mode {mode!r}")
    try:
        sim = SimConfig(
            t_end=parser.getfloat("sim", "t_end"),
            epsilon=parser.getfloat("sim", "epsilon"),
            base_seed=parser.getint("sim", "base_seed"),
            dominating_rate_margin=parser.getfloat(
                "sim", "margin", fallback=1.5
            ),
            max_jumps=parser.getint("sim", "max_jumps", fallback=10_000_000),
            small_jump_mode=mode,
        )
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"[sim] {exc}") from exc

    analyses = []
    for section in parser.sections():
        if not section.startswith("analysis."):
            continue
        name = section.split(".", 1)[1]
        if name not in ("martingale", "moment_identity", "qv", "generator",
                        "lil"):
            _fail(section, f"unknown analysis {name!r}")
        raw = dict(parser.items(section))
        analyses.append(AnalysisSpec(
            name, _analysis_params(name, raw, d, sim.t_end)))

    write_paths = parser.getboolean("output", "write_paths", fallback=True)

    return ExperimentConfig(
        kernel=kernel,
        grid=grid,
        sim=sim,
        n_paths=n_paths,
        x0=x0,
        analyses=analyses,
        write_paths=write_paths,
        source_text=text,
    )
