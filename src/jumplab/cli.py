"""Command line driver: ``jumplab validate|simulate|analyze <config>``.

Outputs land in ``<out>/<config-hash>/`` with subdirectories
``reports/``, ``paths/`` and ``plots/`` plus a ``manifest.json``.  The
output root is ``--out`` if given, else the ``JUMPLAB_OUT`` environment
variable, else ``./out``.  Exit codes: 0 all checks passed, 1 at least
one check or analysis failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path as FSPath

import numpy as np

from . import __version__, estimators, svgplot, validators
from .config import load_config
from .errors import ConfigError, JumplabError
from .simulator import ThinningSimulator, _fmt, write_path_csv

__all__ = ["main"]


def _out_root(args):
    if args.out:
        return FSPath(args.out)
    env = os.environ.get("JUMPLAB_OUT")
    return FSPath(env) if env else FSPath("out")


def _run_dirs(cfg, args):
    root = _out_root(args) / cfg.hash
    dirs = {name: root / name for name in ("reports", "paths", "plots")}
    for p in dirs.values():
        p.mkdir(parents=True, exist_ok=True)
    return root, dirs


def _write_manifest(root, cfg, command, files, started):
    listing = []
    for f in sorted(files):
        digest = hashlib.sha256(FSPath(f).read_bytes()).hexdigest()
        listing.append({
            "path": str(FSPath(f).relative_to(root)),
            "sha256": digest,
        })
    manifest = {
        "config_hash": cfg.hash,
        "tool_version": __version__,
        "command": command,
        "files": listing,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_csv(files, path, header, rows):
    """One line per ``(label, numbers)`` row: the label's columns, then
    the numbers as shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for label, numbers in rows:
            fh.write(f"{label},{','.join(map(_fmt, numbers))}\n")
    files.append(path)


# --- analyses ----------------------------------------------------------------


def _an_martingale(cfg, ens, spec, dirs, files):
    t = spec.params["t"]
    # the report at t and the plot's 20 times share one pass over paths
    times = np.linspace(t / 20.0, t, 20)
    series = estimators.martingale_series(ens, [*times, t])
    rep = series.pop()
    _write_csv(files, dirs["reports"] / "martingale.csv",
               "coordinate,mean,se,z_score",
               enumerate(zip(rep.mean, rep.se, rep.z_scores), 1))
    fig = svgplot.Figure(
        title="Martingale test: mean displacement with 3 SE bands",
        xlabel="t", ylabel="mean(X_t - x0)",
    )
    for i in range(len(rep.mean)):
        mean = [r.mean[i] for r in series]
        hi = [r.mean[i] + 3 * r.se[i] for r in series]
        lo = [r.mean[i] - 3 * r.se[i] for r in series]
        fig.line(times, mean, label=f"coordinate {i + 1}")
        fig.line(times, hi, color="#bbbbbb")
        fig.line(times, lo, color="#bbbbbb")
    fig.hline(0.0, color="#444444")
    p = dirs["plots"] / "martingale.svg"
    fig.save(p)
    files.append(p)
    return rep.passed, f"z_max = {np.max(np.abs(rep.z_scores)):.3f}"


def _an_moment_identity(cfg, ens, spec, dirs, files):
    t = spec.params["t"]
    rtol = spec.params["rtol"]
    rep = estimators.second_moment_identity(ens, cfg.kernel, t)
    _write_csv(files, dirs["reports"] / "moment_identity.csv",
               "coordinate,sample_second_moment,se,"
               "predictable_integral,relative_difference",
               enumerate(zip(rep.lhs, rep.lhs_se, rep.rhs,
                             rep.relative_difference), 1))
    within = np.abs(rep.lhs - rep.rhs) <= 3.0 * np.maximum(rep.lhs_se, 0.0)
    ok = bool(np.all(
        (np.abs(rep.relative_difference) <= rtol) | within
    ))
    return ok, (f"max |relative difference| = "
                f"{np.max(np.abs(rep.relative_difference)):.4f}")


def _an_qv(cfg, ens, spec, dirs, files):
    t = spec.params["t"]
    rep = estimators.qv_comparison(ens, cfg.kernel, t)
    d = cfg.kernel.d
    _write_csv(files, dirs["reports"] / "qv.csv",
               "i,j,realized_mean,predictable_mean,diff_mean,diff_se,z_score",
               ((f"{i + 1},{j + 1}",
                 (rep.realized_mean[i, j], rep.predictable_mean[i, j],
                  rep.diff_mean[i, j], rep.diff_se[i, j], rep.z_scores[i, j]))
                for i in range(d) for j in range(d)))
    fig = svgplot.Figure(
        title="Quadratic variation: realized vs predictable",
        xlabel="predictable mean", ylabel="realized mean",
    )
    xs = rep.predictable_mean.ravel().tolist()
    ys = rep.realized_mean.ravel().tolist()
    fig.scatter(xs, ys, label="matrix entries")
    lo = min(xs + ys)
    hi = max(xs + ys)
    fig.line([lo, hi], [lo, hi], label="identity", color="#444444")
    p = dirs["plots"] / "qv.svg"
    fig.save(p)
    files.append(p)
    return rep.passed, f"z_max = {np.max(np.abs(rep.z_scores)):.3f}"


def _an_generator(cfg, ens, spec, dirs, files):
    t = spec.params["t"]
    fname = spec.params["function"]
    rep = estimators.generator_martingale_test(ens, cfg.kernel, fname, t)
    _write_csv(files, dirs["reports"] / "generator.csv",
               "function,t,mean,se,z_score",
               [(rep.function, (rep.t, rep.mean, rep.se, rep.z_score))])
    return rep.passed, f"{fname}: z = {rep.z_score:.3f}"


def _calibrated_band():
    data = resources.files("jumplab").joinpath("data/lil_band.json")
    return json.loads(data.read_text(encoding="utf-8"))


def _an_lil(cfg, ens, spec, dirs, files):
    t_end = cfg.sim.t_end
    t0 = spec.params["t_start"]
    checkpoints = []
    t = t0
    while t < t_end:
        checkpoints.append(t)
        t *= 2.0
    checkpoints.append(t_end)
    direction = spec.params["direction"]
    ell = validators.check_ellipticity(cfg.kernel, cfg.grid)
    lam = ell.evidence.get("lambda_hat", 0.0)
    Lam = ell.evidence.get("Lambda_hat", 0.0)
    tail_lb = spec.params["tail_lower_bound"]
    rep = estimators.lil_statistics(
        ens, direction, checkpoints, lam, Lam, tail_lb, kernel=cfg.kernel,
    )
    band = spec.params["band"]
    if band is None:
        cal = _calibrated_band()
        band = cal["band_lo"], cal["band_hi"]
    band_lo, band_hi = band
    coverage_req = spec.params["coverage"]
    run = rep.running_max_directional
    covered = float(np.mean((run >= band_lo) & (run <= band_hi)))
    _write_csv(files, dirs["reports"] / "lil.csv",
               "path,running_max_directional,running_max_radial",
               enumerate(zip(run, rep.running_max_radial)))
    fig = svgplot.Figure(
        title="Iterated-logarithm statistic: running max |W_t|",
        xlabel="t", ylabel="running max |W|", log_x=True,
    )
    absW = np.abs(rep.directional)
    runW = np.maximum.accumulate(absW, axis=1)
    for k in range(min(len(run), 30)):
        fig.line(rep.checkpoints, runW[k], color="#1f77b4")
    fig.hline(band_lo, label=f"band lo = {band_lo:.3f}", color="#d62728")
    fig.hline(band_hi, label=f"band hi = {band_hi:.3f}", color="#d62728")
    sq_lo, sq_hi = rep.band
    if sq_lo > 0:
        fig.hline(1.0, label="LIL limit", color="#2ca02c")
    pth = dirs["plots"] / "lil.svg"
    fig.save(pth)
    files.append(pth)
    ok = (not rep.degenerate) and covered >= coverage_req
    return ok, (f"coverage = {covered:.3f} in [{band_lo:.3f}, "
                f"{band_hi:.3f}], required {coverage_req:.2f}")


_ANALYSES = {
    "martingale": _an_martingale,
    "moment_identity": _an_moment_identity,
    "qv": _an_qv,
    "generator": _an_generator,
    "lil": _an_lil,
}


# --- the pipeline ------------------------------------------------------------


def _run(cfg, args):
    """Validate, then simulate, then analyze; each command stops after its
    own stage.  The manifest lists every file the stages wrote."""
    started = time.monotonic()
    root, dirs = _run_dirs(cfg, args)
    if args.command == "analyze" and not cfg.analyses:
        print("no [analysis.*] sections in config", file=sys.stderr)
        return 2
    files = []
    code = _stages(cfg, args, dirs, files)
    _write_manifest(root, cfg, args.command, files, started)
    return code


def _stages(cfg, args, dirs, files):
    """The stages up to ``args.command``; returns its exit code."""
    command = args.command
    if command == "validate" or not args.force:
        report = validators.run_all(cfg.kernel, cfg.grid)
        vr = dirs["reports"] / "validation.txt"
        vr.write_text(report.to_text(), encoding="utf-8")
        files.append(vr)
        if command == "validate":
            for c in report.checks:
                print(f"{c.verdict.upper():9s} {c.name}")
            return 1 if report.has_fail else 0
        if report.has_fail:
            failed = [c.name for c in report.checks if c.failed]
            print(f"validation failed ({', '.join(failed)}); "
                  f"rerun with --force to {command} anyway", file=sys.stderr)
            return 1

    sim_cfg = cfg.sim
    if args.seed_override is not None:
        sim_cfg = dataclasses.replace(sim_cfg, base_seed=args.seed_override)
    # the paths start at x0, so the dominating rate must cover it
    sim = ThinningSimulator(cfg.kernel, sim_cfg,
                            rate_grid=cfg.grid.points + (cfg.x0,))
    ens = sim.ensemble(cfg.x0, cfg.n_paths, jobs=args.jobs)
    if cfg.write_paths:
        width = len(str(cfg.n_paths - 1))
        for k, p in enumerate(ens.paths):
            f = dirs["paths"] / f"path_{k:0{width}d}.csv"
            with open(f, "w", encoding="utf-8", newline="") as fh:
                write_path_csv(p, fh)
            files.append(f)
    if command == "simulate":
        total = sum(p.n_jumps for p in ens.paths)
        print(f"simulated {ens.n_paths} paths, {total} jumps")
        return 0

    any_failed = False
    summary_lines = []
    for spec in cfg.analyses:
        ok, detail = _ANALYSES[spec.name](cfg, ens, spec, dirs, files)
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict:9s} {spec.name}: {detail}"
        print(line)
        summary_lines.append(line)
        any_failed = any_failed or not ok
    summary = dirs["reports"] / "analysis_summary.txt"
    summary.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    files.append(summary)
    return 1 if any_failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jumplab",
        description="Validate, simulate and analyze state-dependent "
                    "jumping kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "simulate", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--force", action="store_true",
                       help="proceed even if validation fails")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for path simulation")
        p.add_argument("--out", default=None,
                       help="output root (overrides JUMPLAB_OUT)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config base seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except JumplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
