"""Shows that every output check of the benchmark can fail.

Usage, from the root of the repository::

    python3 bench/selftest.py [--seed N]

Runs one real operation per workload, requires its outputs to pass
every check, then feeds each check a corrupted copy of those outputs
and requires that check to reject it.  A command that exits non-zero
must count as a failed operation too.  Exits 1 if any corruption gets
through or any check has no corruption.
"""

from __future__ import annotations

import argparse
import csv
import shutil
import sys

import workloads
from run import OUT, ROOT, run_operation
from workloads import Case, check_outputs, parse_number, read_validation

WORK = OUT / "selftest"


def edit_csv(path, row, column, fn):
    """Replace ``column`` of data row ``row`` by ``fn(old value)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index(column)
    rows[row + 1][k] = repr(fn(float(rows[row + 1][k])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_csv_rows(path, fn):
    """Rewrite the data rows of a CSV report as ``fn(header, rows)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [rows[0]] + fn(rows[0], rows[1:]))


def edit_validation(path, check, key, fn):
    """Replace ``key`` of ``check`` in validation.txt by ``fn(old text)``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    current = None
    for i, line in enumerate(lines):
        if line.startswith("check "):
            current = line.split()[1]
        elif current == check and line.strip().startswith(f"{key} = "):
            old = line.split(" = ", 1)[1].strip()
            lines[i] = f"  {key} = {fn(old)}\n"
    path.write_text("".join(lines), encoding="utf-8")


def edit_path_rows(path, fn):
    """Rewrite the data lines of a path CSV as ``fn(lines)``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith(("#", "jump_time"))]
    body = [ln for ln in lines if not ln.startswith(("#", "jump_time"))]
    path.write_text("".join(head + fn(body)), encoding="utf-8")


def _busy_path(out):
    """The first path file with at least two jumps."""
    for p in sorted((out / "paths").glob("path_*.csv")):
        if sum(1 for ln in p.open() if ln[0].isdigit()) >= 2:
            return p
    raise RuntimeError("no path with two jumps")


def _rel(f):
    return lambda v: v * (1.0 + f)


def _past_bound(check, key, sign):
    """Move ``key`` of ``check`` by twice its reported quadrature error."""
    def corrupt(out):
        path = out / "reports" / "validation.txt"
        err = parse_number(read_validation(path)[check]["quadrature_error"])
        edit_validation(path, check, key,
                        lambda old: repr(parse_number(old) + 2 * sign * err))
    return corrupt


def _swap_lil_columns(out):
    # on path 5, swap the path-index column with running_max_radial
    def swap(header, rows):
        i, j = header.index("path"), header.index("running_max_radial")
        rows[5][i], rows[5][j] = rows[5][j], rows[5][i]
        return rows
    edit_csv_rows(out / "reports" / "lil.csv", swap)


def _lil_out_of_band(out):
    def push(header, rows):
        for row in rows[:20]:
            row[1] = row[2] = "3.0"
        return rows
    edit_csv_rows(out / "reports" / "lil.csv", push)


def _swap_first_times(path):
    def swap(lines):
        lines[0], lines[1] = lines[1], lines[0]
        return lines
    edit_path_rows(path, swap)


def _jump_below_epsilon(path):
    def shrink(lines):
        t, _ = lines[0].split(",")
        lines[0] = f"{t},0.04\n"
        return lines
    edit_path_rows(path, shrink)


def _drop_every_other_jump(out):
    for p in (out / "paths").glob("path_*.csv"):
        edit_path_rows(p, lambda lines: lines[::2])


# (description, check expected to reject, corruption of an output dir)
CORRUPTIONS = {
    "atoms_ensemble": [
        ("qv predictable_mean[1,2] off by 1e-6 relative",
         "atoms_qv_predictable",
         lambda o: edit_csv(o / "reports/qv.csv", 1, "predictable_mean",
                            _rel(1e-6))),
        ("moment predictable_integral[1] off by 1e-6 relative",
         "atoms_moment_predictable",
         lambda o: edit_csv(o / "reports/moment_identity.csv", 0,
                            "predictable_integral", _rel(1e-6))),
        ("qv realized_mean[1,1] 20% high", "atoms_realized_qv",
         lambda o: edit_csv(o / "reports/qv.csv", 0, "realized_mean",
                            _rel(0.2))),
        ("sample_second_moment[1] 20% high", "atoms_second_moment",
         lambda o: edit_csv(o / "reports/moment_identity.csv", 0,
                            "sample_second_moment", _rel(0.2))),
        ("martingale mean[1] moved by 0.1", "atoms_martingale_mean",
         lambda o: edit_csv(o / "reports/martingale.csv", 0, "mean",
                            lambda v: v + 0.1)),
        ("martingale se[1] off by 1e-6 relative", "atoms_totals_agree",
         lambda o: edit_csv(o / "reports/martingale.csv", 0, "se",
                            _rel(1e-6))),
    ],
    "variable_order": [
        ("one path file missing", "vo_path_count",
         lambda o: sorted((o / "paths").glob("path_*.csv"))[-1].unlink()),
        ("a jump of size 0.04 below epsilon 0.05", "vo_jumps_above_epsilon",
         lambda o: _jump_below_epsilon(_busy_path(o))),
        ("first two jump times swapped", "vo_times_increasing",
         lambda o: _swap_first_times(_busy_path(o))),
        ("martingale mean moved by 1e-6", "vo_martingale_matches_paths",
         lambda o: edit_csv(o / "reports/martingale.csv", 0, "mean",
                            lambda v: v + 1e-6)),
        ("every other jump dropped from every path", "vo_compensated_count",
         _drop_every_other_jump),
    ],
    "cone_validation_2d": [
        ("index_regularity verdict turned to pass", "cone_verdicts",
         lambda o: edit_validation(o / "reports/validation.txt",
                                   "index_regularity", "verdict",
                                   lambda old: "pass")),
        ("sup moved 2 reported bounds down", "cone_sup",
         _past_bound("second_moment", "sup", -1)),
        ("lambda_hat moved 2 reported bounds up", "cone_ellipticity",
         _past_bound("ellipticity", "lambda_hat", 1)),
        ("observed_min off by 1e-6 relative", "cone_alpha_range",
         lambda o: edit_validation(o / "reports/validation.txt",
                                   "index_regularity", "observed_min",
                                   lambda old: repr(parse_number(old)
                                                    * (1 + 1e-6)))),
    ],
    "lil_long_horizon": [
        ("qv predictable_mean off by 1e-6 relative", "lil_predictable",
         lambda o: edit_csv(o / "reports/qv.csv", 0, "predictable_mean",
                            _rel(1e-6))),
        ("qv realized_mean 1% high", "lil_realized",
         lambda o: edit_csv(o / "reports/qv.csv", 0, "realized_mean",
                            _rel(0.01))),
        ("LIL columns swapped on path 5", "lil_running_max_equal",
         _swap_lil_columns),
        ("20 paths pushed out of the band", "lil_coverage",
         _lil_out_of_band),
    ],
}

FAILING_CONFIG = """\
[kernel]
dimension = 1
components = big

[component.big]
family = big_jump_power_law
c0 = 1.0
beta1 = 1.5

[sim]
t_end = 1.0
epsilon = 0.1
base_seed = 1
n_paths = 10
x0 = 0.0

[analysis.martingale]
t = 1.0
"""


def _run(case, name):
    work = WORK / name
    work.mkdir(parents=True)
    cfg = work / "config.cfg"
    cfg.write_text(case.config, encoding="utf-8")
    _, failures = run_operation(case, cfg, work / "out")
    runs = [p for p in (work / "out").iterdir() if p.is_dir()]
    return failures, runs[0] if runs else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    shutil.rmtree(WORK, ignore_errors=True)
    missed = []
    try:
        for name, w in workloads.WORKLOADS.items():
            case = workloads.case_for(name, args.seed, ROOT)
            failures, out = _run(case, name)
            if failures:
                print(f"{name}: the real output fails {failures}")
                return 1
            covered = {check for _, check, _ in CORRUPTIONS[name]}
            for check in w.checks:
                if check.__name__ not in covered:
                    missed.append(f"{name}: no corruption for "
                                  f"{check.__name__}")
            for k, (what, check, corrupt) in enumerate(CORRUPTIONS[name]):
                copy = WORK / f"{name}-corrupt{k}"
                shutil.copytree(out, copy)
                corrupt(copy)
                rejected = dict(check_outputs(case, copy))
                if check in rejected:
                    print(f"ok    {name}: {what} -> {check}: "
                          f"{rejected[check]}")
                else:
                    missed.append(f"{name}: {what} passed {check}")
        bad = Case("atoms_ensemble", ("analyze",), FAILING_CONFIG)
        failures, _ = _run(bad, "exit_code")
        if [check for check, _ in failures] == ["exit_code"]:
            print(f"ok    a command exiting 1 fails its operation: "
                  f"{failures[0][1].splitlines()[0]}")
        else:
            missed.append("a command exiting 1 was not counted as failed")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in missed:
        print(f"MISS  {line}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
