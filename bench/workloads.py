"""The four benchmark workloads: config generators and output checks.

Each workload turns a pool index into one jumplab config (``Case``) and
knows how to check the files that its ``jumplab`` commands write.
Every expected value below is computed here from the workload's own
parameters with numpy closed forms; nothing is taken from the program
except the outputs being checked.

Checks raise :class:`CheckFailed`.  Statistical checks use a gate of
``Z_GATE`` standard errors, which a normal statistic exceeds with
probability 2e-9.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Z_GATE = 6.0

# ``--seed n`` selects config ``n mod POOL_SIZE`` of each workload.
# jumplab's analyses gate at 3 standard errors, so a correct program
# exits 1 on a few random configs in a hundred, and a benchmark
# operation must not fail on some seeds only: ``vet_pool.py`` ran every
# config of the pool once, and on each the commands exited 0 and every
# check passed.
POOL_SIZE = 32


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Case:
    """One generated input: the config text plus what the checks need."""

    workload: str
    commands: tuple  # jumplab subcommands, run in this order
    config: str
    params: dict = field(default_factory=dict)


def _rng(workload, index):
    tag = sum(ord(ch) * 31**k for k, ch in enumerate(workload)) % 2**32
    return np.random.default_rng([tag, index])


def _base_seed(rng):
    return int(rng.integers(1, 2**31))


def _fail(msg):
    raise CheckFailed(msg)


def _close(a, b, rtol, what):
    a, b = float(a), float(b)
    scale = max(abs(a), abs(b), 1e-300)
    if not abs(a - b) <= rtol * scale:
        _fail(f"{what}: {a!r} vs {b!r} (relative tolerance {rtol:g})")


def _within(value, expected, se, what):
    value, expected = float(value), float(expected)
    if not abs(value - expected) <= Z_GATE * se:
        _fail(f"{what}: {value!r} differs from {expected!r} by "
              f"{abs(value - expected) / se:.2f} SE (gate {Z_GATE:g})")


def read_table(path):
    """A CSV report as a list of dicts of floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _matrix(rows, key, d):
    m = np.zeros((d, d))
    for row in rows:
        m[int(row["i"]) - 1, int(row["j"]) - 1] = row[key]
    return m


def _column(rows, key):
    return np.array([row[key] for row in rows])


# --- atoms_ensemble ----------------------------------------------------------
#
# Many short paths of a 2-d compound-Poisson kernel: no coefficient
# expressions and no quadrature, so the simulator's and estimators'
# per-path overhead is the whole cost.

ATOMS_PATHS = 5_000
ATOMS_PAIRS = 3
ATOMS_RATE = 6.0  # total jump rate, fixed so every config costs the same


def make_atoms(index):
    rng = _rng("atoms_ensemble", index)
    while True:
        angles = rng.uniform(0.0, math.pi, ATOMS_PAIRS)
        radii = rng.uniform(0.3, 0.8, ATOMS_PAIRS)
        share = rng.dirichlet(np.full(ATOMS_PAIRS, 4.0))
        weights = np.round(0.5 * ATOMS_RATE * share, 6)
        z = np.round(radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]), 6)
        atoms = [(float(w), zk) for w, zk in zip(weights, z)]
        atoms += [(float(w), -zk) for w, zk in zip(weights, z)]
        cov = sum(w * np.outer(zk, zk) for w, zk in atoms)
        if abs(cov[0, 1]) >= 0.2 * math.sqrt(cov[0, 0] * cov[1, 1]):
            break
    text = "; ".join(f"{w!r}: {float(zk[0])!r}, {float(zk[1])!r}"
                     for w, zk in atoms)
    config = f"""\
[kernel]
dimension = 2
components = atoms

[component.atoms]
family = compound_poisson_atoms
atoms = {text}

[sim]
t_end = 1.0
epsilon = 0.1
base_seed = {_base_seed(rng)}
n_paths = {ATOMS_PATHS}
x0 = 0.0, 0.0

[output]
write_paths = false

[analysis.martingale]
t = 1.0

[analysis.qv]
t = 1.0

[analysis.moment_identity]
t = 1.0

[analysis.generator]
function = sin_first
t = 1.0
"""
    params = {"t": 1.0, "n": ATOMS_PATHS,
              "weights": [w for w, _ in atoms],
              "atoms": [zk.tolist() for _, zk in atoms]}
    return Case("atoms_ensemble", ("analyze",), config, params)


def _atom_moments(p):
    """Cumulant-rate tensors of the atom measure: sum w z^k."""
    w = np.array(p["weights"])
    z = np.array(p["atoms"])
    cov = np.einsum("k,ki,kj->ij", w, z, z)
    return w, z, cov


def load_atoms(out):
    rep = out / "reports"
    return {"martingale": read_table(rep / "martingale.csv"),
            "qv": read_table(rep / "qv.csv"),
            "moment": read_table(rep / "moment_identity.csv")}


def atoms_qv_predictable(case, data):
    _, _, cov = _atom_moments(case.params)
    got = _matrix(data["qv"], "predictable_mean", 2)
    want = case.params["t"] * cov
    for i in range(2):
        for j in range(2):
            _close(got[i, j], want[i, j], 1e-12,
                   f"qv predictable_mean[{i + 1},{j + 1}]")


def atoms_moment_predictable(case, data):
    _, _, cov = _atom_moments(case.params)
    got = _column(data["moment"], "predictable_integral")
    for i in range(2):
        _close(got[i], case.params["t"] * cov[i, i], 1e-12,
               f"moment_identity predictable_integral[{i + 1}]")


def atoms_realized_qv(case, data):
    w, z, cov = _atom_moments(case.params)
    t, n = case.params["t"], case.params["n"]
    got = _matrix(data["qv"], "realized_mean", 2)
    for i in range(2):
        for j in range(2):
            # Var of sum over jumps of z_i z_j is t * sum w (z_i z_j)^2
            se = math.sqrt(t * float(w @ (z[:, i] * z[:, j]) ** 2) / n)
            _within(got[i, j], t * cov[i, j], se,
                    f"qv realized_mean[{i + 1},{j + 1}]")


def atoms_second_moment(case, data):
    w, z, cov = _atom_moments(case.params)
    t, n = case.params["t"], case.params["n"]
    got = _column(data["moment"], "sample_second_moment")
    for i in range(2):
        k2 = t * cov[i, i]
        k4 = t * float(w @ z[:, i] ** 4)
        # Var X^2 = kappa_4 + 2 kappa_2^2 for a centred compound Poisson X
        _within(got[i], k2, math.sqrt((k4 + 2.0 * k2 * k2) / n),
                f"sample_second_moment[{i + 1}]")


def atoms_martingale_mean(case, data):
    _, _, cov = _atom_moments(case.params)
    t, n = case.params["t"], case.params["n"]
    got = _column(data["martingale"], "mean")
    for i in range(2):
        _within(got[i], 0.0, math.sqrt(t * cov[i, i] / n),
                f"martingale mean[{i + 1}]")


def atoms_totals_agree(case, data):
    n = case.params["n"]
    mean = _column(data["martingale"], "mean")
    se = _column(data["martingale"], "se")
    ssm = _column(data["moment"], "sample_second_moment")
    for i in range(2):
        # mean(x^2) = var_(n-1) (n-1)/n + mean^2 and se^2 = var_(n-1)/n
        _close(ssm[i], se[i] ** 2 * (n - 1) + mean[i] ** 2, 1e-9,
               f"sample_second_moment[{i + 1}] vs martingale totals")


# --- variable_order ----------------------------------------------------------
#
# The state-dependent 1-d kernel of configs/variable_order_d1.cfg: every
# proposal evaluates the rate through exprlang and kernels.  ``jumplab
# analyze`` does not write paths whatever ``write_paths`` says, so the
# operation runs ``jumplab simulate`` first; both commands simulate the
# same paths from the same seed, and the checks hold the analysis
# report against the path files.  The qv and moment_identity analyses
# are left out: with a beta1 = 3 tail, sum z^2 has infinite variance and
# their 3-SE gates fail the command on a large share of seeds.

VO_PATHS = 100
VO_EPS = 0.05
VO_C0 = 1.0
VO_BETA = 3.0


def make_variable_order(index):
    rng = _rng("variable_order", index)
    config = f"""\
[kernel]
dimension = 1
components = small, big

[component.small]
family = stable_like_small
c = 1 + 0.5/(1 + |x|^2)
c_bounds = 1.0, 1.5
alpha = 1 + 0.5/(1 + |x|^2)
alpha_bounds = 1.0, 1.5

[component.big]
family = big_jump_power_law
c0 = {VO_C0!r}
beta1 = {VO_BETA!r}

[sim]
t_end = 1.0
epsilon = {VO_EPS!r}
base_seed = {_base_seed(rng)}
n_paths = {VO_PATHS}
x0 = 0.0

[output]
write_paths = true

[analysis.martingale]
t = 1.0
"""
    params = {"t": 1.0, "n": VO_PATHS, "eps": VO_EPS}
    return Case("variable_order", ("simulate", "analyze"), config, params)


def _vo_c(x):
    return 1.0 + 0.5 / (1.0 + x * x)


def vo_rate(x, eps):
    """Tail rate N(x, {|z| >= eps}) of the variable-order kernel."""
    c = alpha = _vo_c(x)
    return 2.0 * c * (eps ** -alpha - 1.0) / alpha + 2.0 * VO_C0 / VO_BETA


def read_path(path):
    """(times, jumps) from a path CSV, parsed without the program."""
    times, jumps = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("jump_time"):
                continue
            t, z = line.split(",")
            times.append(float(t))
            jumps.append(float(z))
    return np.array(times), np.array(jumps)


def load_variable_order(out):
    rep = out / "reports"
    files = sorted((out / "paths").glob("path_*.csv"))
    if not files:
        raise ValueError(f"no path files under {out / 'paths'}")
    return {"martingale": read_table(rep / "martingale.csv"),
            "paths": [read_path(p) for p in files]}


def _holds(times, t_end):
    return np.diff(np.concatenate([[0.0], times, [t_end]]))


def _states(jumps):
    return np.concatenate([[0.0], np.cumsum(jumps)])


def vo_path_count(case, data):
    if len(data["paths"]) != case.params["n"]:
        _fail(f"{len(data['paths'])} path files, expected {case.params['n']}")


def vo_jumps_above_epsilon(case, data):
    eps = case.params["eps"]
    for k, (_, z) in enumerate(data["paths"]):
        if len(z) and np.min(np.abs(z)) < eps:
            _fail(f"path {k}: jump {float(np.min(np.abs(z)))!r} below "
                  f"epsilon {eps}")


def vo_times_increasing(case, data):
    t_end = case.params["t"]
    for k, (times, _) in enumerate(data["paths"]):
        if len(times) and not (times[0] > 0.0 and times[-1] <= t_end
                               and np.all(np.diff(times) > 0.0)):
            _fail(f"path {k}: jump times not increasing within (0, {t_end}]")


def vo_martingale_matches_paths(case, data):
    own = float(np.mean([z.sum() for _, z in data["paths"]]))
    got = data["martingale"][0]["mean"]
    if not abs(got - own) <= 1e-12 * max(1.0, abs(own)):
        _fail(f"martingale mean {got!r}, own sum over paths {own!r}")


def vo_compensated_count(case, data):
    t, eps = case.params["t"], case.params["eps"]
    m = np.array([len(times) - np.dot(_holds(times, t),
                                      vo_rate(_states(z), eps))
                  for times, z in data["paths"]])
    se = float(m.std(ddof=1) / math.sqrt(len(m)))
    _within(float(m.mean()), 0.0, se, "compensated jump count")


# --- cone_validation_2d ------------------------------------------------------
#
# Validation only, on a small 2-d grid: a state-dependent stable-like
# part plus a first-axis cone of a power law, so the radial x spherical
# quadrature and the grid sweep do nearly all the work.

CONE_EXTENT = 2.0
CONE_POINTS = 2
CONE_BETA = 3.0


def make_cone(index):
    rng = _rng("cone_validation_2d", index)
    ca, cb, pa, pb = (round(float(v), 3) for v in rng.uniform(
        [0.8, 0.3, 0.8, 0.1], [1.2, 0.7, 1.2, 0.4]))
    config = f"""\
[kernel]
dimension = 2
components = small, cone

[component.small]
family = stable_like_small
c = {ca!r} + {cb!r}/(1 + |x|^2)
alpha = 1 + 0.5/(1 + |x|^2)

[component.base]
family = big_jump_power_law
c0 = {pa!r} + {pb!r}*x[1]^2/(1 + |x|^2)
beta1 = {CONE_BETA!r}

[component.cone]
family = cone_restriction
base = base
predicate = first_axis

[grid]
extent = {CONE_EXTENT!r}
points = {CONE_POINTS}

[sim]
t_end = 1.0
epsilon = 0.1
base_seed = {_base_seed(rng)}
n_paths = 1
x0 = 0.0, 0.0
"""
    params = {"c": [ca, cb], "c0": [pa, pb]}
    return Case("cone_validation_2d", ("validate",), config, params)


def cone_closed_form(params):
    """Per grid point: alpha and the two diagonal entries of a(x)."""
    axis = np.linspace(-CONE_EXTENT, CONE_EXTENT, CONE_POINTS)
    x1, x2 = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
    q = 1.0 + x1 * x1 + x2 * x2
    ca, cb = params["c"]
    pa, pb = params["c0"]
    c = ca + cb / q
    alpha = 1.0 + 0.5 / q
    c0 = pa + pb * x1 * x1 / q
    small = c * math.pi / (2.0 - alpha)
    # the first-axis cone keeps |theta_1| >= |theta_2|: the angular
    # integrals of theta_1^2 and theta_2^2 are pi/2 + 1 and pi/2 - 1
    big = c0 / (CONE_BETA - 2.0)
    a11 = small + big * (math.pi / 2.0 + 1.0)
    a22 = small + big * (math.pi / 2.0 - 1.0)
    return alpha, a11, a22


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def read_validation(path):
    """validation.txt as {check: {"verdict": str, key: raw text}}."""
    checks = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("check "):
                current = checks.setdefault(line.split()[1], {})
            elif current is not None and " = " in line:
                key, _, val = line.strip().partition(" = ")
                current[key] = val
    return checks


def parse_number(text):
    """The last number in a validation.txt value, e.g. ``np.float64(0.1)``."""
    return float(_NUMBER.findall(text)[-1])


def _number(checks, check, key):
    try:
        return parse_number(checks[check][key])
    except (KeyError, IndexError):
        _fail(f"{check}: no numeric {key}")


def load_cone(out):
    return {"checks": read_validation(out / "reports" / "validation.txt")}


def cone_verdicts(case, data):
    checks = data["checks"]
    want = {"second_moment": "pass", "zero_drift": "pass",
            "ellipticity": "pass", "index_regularity": "advisory"}
    for name, verdict in want.items():
        got = checks.get(name, {}).get("verdict")
        if got != verdict:
            _fail(f"{name}: verdict {got!r}, expected {verdict!r}")
    if _number(checks, "zero_drift", "max_abs_drift") != 0.0:
        _fail("zero_drift: max_abs_drift is not exactly 0")
    if _number(checks, "second_moment", "grid_points") != CONE_POINTS**2:
        _fail("second_moment: wrong grid_points")


def cone_sup(case, data):
    _, a11, a22 = cone_closed_form(case.params)
    checks = data["checks"]
    got = _number(checks, "second_moment", "sup")
    err = _number(checks, "second_moment", "quadrature_error")
    want = float(np.max(a11 + a22))
    if not abs(got - want) <= err:
        _fail(f"second_moment sup {got!r} vs closed form {want!r}: "
              f"off by {abs(got - want):.3g}, reported bound {err:.3g}")


def cone_ellipticity(case, data):
    _, a11, a22 = cone_closed_form(case.params)
    checks = data["checks"]
    err = _number(checks, "ellipticity", "quadrature_error")
    for key, want in (("lambda_hat", float(np.min(a22))),
                      ("Lambda_hat", float(np.max(a11)))):
        got = _number(checks, "ellipticity", key)
        if not abs(got - want) <= err:
            _fail(f"{key} {got!r} vs closed form {want!r}: off by "
                  f"{abs(got - want):.3g}, reported bound {err:.3g}")


def cone_alpha_range(case, data):
    alpha, _, _ = cone_closed_form(case.params)
    checks = data["checks"]
    _close(_number(checks, "index_regularity", "observed_min"),
           float(alpha.min()), 1e-12, "index_regularity observed_min")
    _close(_number(checks, "index_regularity", "observed_max"),
           float(alpha.max()), 1e-12, "index_regularity observed_max")


# --- lil_long_horizon --------------------------------------------------------
#
# The kernel of configs/lil_compound_poisson.cfg (rate 4, jumps +-1/2):
# few very long paths, so per-jump array work and memory dominate.

LIL_PATHS = 40
LIL_T_END = 1e5
LIL_COVERAGE = 0.9


def make_lil(index):
    rng = _rng("lil_long_horizon", index)
    config = f"""\
[kernel]
dimension = 1
components = atoms

[component.atoms]
family = compound_poisson_atoms
atoms = 2.0: 0.5; 2.0: -0.5

[sim]
t_end = {LIL_T_END!r}
epsilon = 0.1
base_seed = {_base_seed(rng)}
n_paths = {LIL_PATHS}
x0 = 0.0

[output]
write_paths = false

[analysis.lil]
t_start = 16.0
direction = 1.0
coverage = {LIL_COVERAGE!r}

[analysis.qv]
t = {LIL_T_END!r}
"""
    params = {"t": LIL_T_END, "n": LIL_PATHS, "coverage": LIL_COVERAGE}
    return Case("lil_long_horizon", ("analyze",), config, params)


def load_lil(out):
    rep = out / "reports"
    return {"qv": read_table(rep / "qv.csv"),
            "lil": read_table(rep / "lil.csv")}


def lil_predictable(case, data):
    # unit variance rate: 4 * (1/2)^2 = 1
    _close(data["qv"][0]["predictable_mean"], case.params["t"], 1e-12,
           "qv predictable_mean vs t_end")


def lil_realized(case, data):
    t, n = case.params["t"], case.params["n"]
    # realized QV = N_t / 4 with N_t ~ Poisson(4 t)
    _within(data["qv"][0]["realized_mean"], t,
            0.25 * math.sqrt(4.0 * t / n), "qv realized_mean")


def lil_running_max_equal(case, data):
    rows = data["lil"]
    if len(rows) != case.params["n"]:
        _fail(f"lil.csv has {len(rows)} paths, expected {case.params['n']}")
    for k, row in enumerate(rows):
        _close(row["running_max_directional"], row["running_max_radial"],
               1e-12, f"row {k} running maxima")


def lil_band(root):
    band = json.loads((root / "src" / "jumplab" / "data" / "lil_band.json")
                      .read_text(encoding="utf-8"))
    return band["band_lo"], band["band_hi"]


def lil_coverage(case, data):
    lo, hi = case.params["band"]
    run = _column(data["lil"], "running_max_directional")
    covered = float(np.mean((run >= lo) & (run <= hi)))
    if covered < case.params["coverage"]:
        _fail(f"LIL coverage {covered:.3f} below {case.params['coverage']}")


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    load: object
    checks: tuple  # of check functions (case, data) -> None


WORKLOADS = {
    w.name: w for w in (
        Workload("atoms_ensemble", make_atoms, load_atoms, (
            atoms_qv_predictable, atoms_moment_predictable,
            atoms_realized_qv, atoms_second_moment, atoms_martingale_mean,
            atoms_totals_agree)),
        Workload("variable_order", make_variable_order, load_variable_order, (
            vo_path_count, vo_jumps_above_epsilon, vo_times_increasing,
            vo_martingale_matches_paths, vo_compensated_count)),
        Workload("cone_validation_2d", make_cone, load_cone, (
            cone_verdicts, cone_sup, cone_ellipticity, cone_alpha_range)),
        Workload("lil_long_horizon", make_lil, load_lil, (
            lil_predictable, lil_realized, lil_running_max_equal,
            lil_coverage)),
    )
}


def make_case(workload, index, root):
    """Pool entry ``index`` of ``workload``, for a checkout at ``root``."""
    case = WORKLOADS[workload].make(index)
    if workload == "lil_long_horizon":
        case.params["band"] = lil_band(root)
    return case


def case_for(workload, seed, root):
    """The config that ``--seed`` selects for ``workload``."""
    return make_case(workload, seed % POOL_SIZE, root)


def check_outputs(case, out):
    """Names and messages of the checks that reject the outputs in ``out``."""
    w = WORKLOADS[case.workload]
    try:
        data = w.load(Path(out))
    except (OSError, KeyError, ValueError) as exc:
        return [("load", f"{type(exc).__name__}: {exc}")]
    failures = []
    for check in w.checks:
        try:
            check(case, data)
        except CheckFailed as exc:
            failures.append((check.__name__, str(exc)))
    return failures
