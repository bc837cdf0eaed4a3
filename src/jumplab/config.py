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

from . import coeffs, exprlang
from .errors import (
    AtomicKernelError,
    ConfigError,
    ExprSyntaxError,
    UnknownIdentifier,
)
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
from .simulator import SimConfig
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
        # plain Python: the generator calls this at every radial node
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


class _Parser(configparser.ConfigParser):
    """A config parser that records the keys asked for, so that a key
    nothing reads is reported instead of ignored."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#",))
        self.asked = {}  # section -> the keys asked for there

    def get(self, section, option, **kwargs):
        # getint, getfloat and getboolean read through here too
        self.asked.setdefault(section, set()).add(self.optionxform(option))
        return super().get(section, option, **kwargs)

    def check_unread(self):
        """Fail on a key that nothing asked for, in a section that
        something read."""
        for section in self.sections():
            asked = self.asked.get(section)
            for key in self.options(section) if asked else ():
                if key not in asked:
                    _fail(section, f"unknown key {key!r}; this section "
                                   f"reads {sorted(asked)}")


_KINDS = {"int": "an integer", "float": "numeric", "boolean": "a boolean"}
_REQUIRED = object()


def _typed(parser, section, key, kind, fallback=_REQUIRED):
    """``parser.get<kind>`` of ``key``, or ``fallback`` when it is absent;
    a missing key without a fallback, or a value that does not parse,
    fails naming its section and key."""
    if fallback is _REQUIRED and not parser.has_option(section, key):
        _fail(section, f"missing {key}")
    try:
        return getattr(parser, f"get{kind}")(section, key, fallback=fallback)
    except ValueError:
        _fail(section, f"{key} = {parser.get(section, key)!r} is not "
                       f"{_KINDS[kind]}")


def _coeff(parser, section, key, d):
    """Coefficient ``key`` with its declared ``*_bounds``, or else
    ``(-inf, inf)``: the validators evaluate it over the grid."""
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        _fail(section, f"missing coefficient {key!r}")
    raw = raw.strip().strip('"')
    try:
        expr = exprlang.parse(raw)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        _fail(section, f"{key} = {raw!r}: {exc}")
    if expr.max_coord() >= d:
        _fail(section, f"{key} references x[{expr.max_coord() + 1}] "
                       f"but d={d}")
    bkey = f"{key}_bounds"
    lo, hi = _floats(parser.get(section, bkey, fallback="-inf, inf"), 2,
                     section, bkey)
    return coeffs.CoefficientFn(expr, lo, hi, raw)


def _floats(raw, n, section, key):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if n is not None and len(parts) != n:
        _fail(section, f"{key} needs {n} comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        _fail(section, f"{key} = {raw!r} is not numeric")


def _analysis_params(parser, name, d, t_end):
    """The parameters of analysis ``name`` from its section: a typo or
    an impossible value fails here, before anything is validated,
    simulated or written."""
    section = f"analysis.{name}"

    def numbers(key, default, n=None):
        text = parser.get(section, key, fallback=None)
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
        params = {
            "t_start": t_start,
            "direction": direction,
            "band": numbers("band", None, 2),
            "coverage": number("coverage", 0.9),
        }
        # the last checkpoint is t_end, and every one must be >= e^e
        if t_end < EE:
            _fail(section, f"needs t_end >= e^e ~ {EE:.3f}, got {t_end!r}")
        return params
    # the paths end at t_end: past it there is nothing to estimate
    t = number("t", t_end)
    if not 0.0 <= t <= t_end:
        _fail(section, f"t = {t!r} lies outside [0, t_end = {t_end!r}]")
    params = {"t": t}
    if name == "moment_identity":
        params["rtol"] = number("rtol", 0.05)
    if name == "generator":
        fname = parser.get(section, "function",
                           fallback="square_first").strip()
        if fname not in TEST_FUNCTIONS:
            _fail(section, f"unknown function {fname!r}; "
                           f"choose from {sorted(TEST_FUNCTIONS)}")
        params["function"] = fname
    return params


def _component(parser, section, d):
    family = parser.get(section, "family", fallback=None)
    if family is None:
        _fail(section, "missing family")
    family = family.strip()
    if family == "stable_like_small":
        return StableLikeSmall(
            _coeff(parser, section, "c", d),
            _coeff(parser, section, "alpha", d),
            bass_normalized=_typed(parser, section, "bass_normalized",
                                   "boolean", False),
        )
    if family == "big_jump_power_law":
        return BigJumpPowerLaw(
            _coeff(parser, section, "c0", d),
            _coeff(parser, section, "beta1", d),
        )
    if family == "big_jump_stretched_exp":
        return BigJumpStretchedExp(
            _coeff(parser, section, "c0", d),
            _typed(parser, section, "lambda", "float"),
            _coeff(parser, section, "beta2", d),
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
        try:
            return CompoundPoissonAtoms(tuple(atoms))
        except ValueError as exc:
            _fail(section, str(exc))
    if family == "cone_restriction":
        base_name = parser.get(section, "base", fallback=None)
        if base_name is None:
            _fail(section, "missing base section name")
        base_section = f"component.{base_name}"
        if not parser.has_section(base_section):
            _fail(section, f"no section [{base_section}]")
        # checked before recursing: a base naming its own cone would loop
        if parser.get(base_section, "family", fallback="").strip() \
                == "cone_restriction":
            _fail(section, f"base [{base_section}] is itself a cone "
                           "restriction")
        base = _component(parser, base_section, d)
        pname = parser.get(section, "predicate", fallback=None)
        if pname not in PREDICATES:
            _fail(section, f"unknown predicate {pname!r}; "
                           f"choose from {sorted(PREDICATES)}")
        pred = PREDICATES[pname]()
        try:
            return ConeRestriction(base, pred, symmetric=pred.symmetric)
        except AtomicKernelError as exc:
            _fail(section, str(exc))
    if family == "hunt_difference":
        return HuntDifference(
            _coeff(parser, section, "c", d),
            _coeff(parser, section, "alpha_r", 1),
        )
    _fail(section, f"unknown family {family!r}")


def load_config(path):
    """Parse and cross-validate an experiment config file."""
    parser = _Parser()
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
    d = _typed(parser, "kernel", "dimension", "int", 0)
    if d not in (1, 2, 3):
        _fail("kernel", f"dimension must be 1, 2 or 3, got {d}")

    points = _typed(parser, "grid", "points", "int", None)
    if points is not None and points <= 0:
        _fail("grid", f"points must be positive, got {points}")
    grid = default_grid(d, _typed(parser, "grid", "extent", "float", None),
                        points)
    raw = parser.get("kernel", "components", fallback=None)
    if raw is None:
        _fail("kernel", "missing components list")
    comps = []
    for name in [n.strip() for n in raw.split(",") if n.strip()]:
        section = f"component.{name}"
        if not parser.has_section(section):
            _fail("kernel", f"no section [{section}]")
        comps.append(_component(parser, section, d))
    kernel = KernelSpec(d, tuple(comps))
    if parser.has_section("envelope"):
        _fail("envelope", "envelope sections are not supported; the "
                          "second_moment, ellipticity, big_jump and hunt "
                          "checks certify what the envelopes would")

    if not parser.has_section("sim"):
        raise ConfigError("missing [sim] section")
    n_paths = _typed(parser, "sim", "n_paths", "int", 0)
    if n_paths <= 0:
        _fail("sim", f"n_paths must be positive, got {n_paths}")
    x0 = _floats(parser.get("sim", "x0", fallback="0"), None, "sim", "x0")
    if len(x0) != d:
        _fail("sim", f"x0 has {len(x0)} coordinates, d={d}")
    try:
        sim = SimConfig(
            t_end=_typed(parser, "sim", "t_end", "float"),
            epsilon=_typed(parser, "sim", "epsilon", "float"),
            base_seed=_typed(parser, "sim", "base_seed", "int"),
        )
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from exc

    analyses = []
    for section in parser.sections():
        if not section.startswith("analysis."):
            continue
        name = section.split(".", 1)[1]
        if name not in ("martingale", "moment_identity", "qv", "generator",
                        "lil"):
            _fail(section, f"unknown analysis {name!r}")
        # one path has no standard error, so every z-score would be 0
        if n_paths < 2:
            _fail(section, f"needs n_paths >= 2, got {n_paths}")
        analyses.append(AnalysisSpec(
            name, _analysis_params(parser, name, d, sim.t_end)))

    write_paths = _typed(parser, "output", "write_paths", "boolean", True)
    parser.check_unread()

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
