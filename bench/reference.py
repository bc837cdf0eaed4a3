"""Reference figures per layer; not gates.

Usage, from the root of the repository::

    python3 bench/reference.py

Times single layers of jumplab directly, untraced, one call each, on
the sizes of the direction-1 baseline table in ``ROADMAP.md``, and
``jumplab analyze`` on the variable_order workload at ``--jobs 1`` and
``--jobs 2``.  Prints one line per figure.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import time

import numpy as np

from run import OUT, ROOT

sys.path.insert(0, str(ROOT / "src"))

from jumplab import (  # noqa: E402
    BigJumpPowerLaw, CompoundPoissonAtoms, ConeRestriction, KernelSpec,
    SimConfig, StableLikeSmall, ThinningSimulator, coeffs, default_grid,
    exprlang, run_all)
from jumplab.cli import main as cli_main  # noqa: E402
from jumplab.config import FirstAxisCone  # noqa: E402
from jumplab.estimators import (  # noqa: E402
    martingale_test, qv_comparison, second_moment_identity)

import workloads  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def report(layer, workload, value):
    print(f"| {layer} | {workload} | {value} |", flush=True)


def variable_order_kernel():
    bump = coeffs.inverse_quadratic_bump(1.0, 0.5)
    return KernelSpec(1, (
        StableLikeSmall(bump, bump),
        BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
    ))


def cone_kernel(c, alpha, c0):
    return KernelSpec(2, (
        StableLikeSmall(c, alpha),
        ConeRestriction(BigJumpPowerLaw(c0, coeffs.constant(3.0)),
                        FirstAxisCone(), symmetric=True),
    ))


def main():
    print("| Layer | Workload | Time |")
    print("|---|---|---|")

    expr = exprlang.parse("1 + 0.5/(1 + |x|^2)")
    points = [(float(v),) for v in np.linspace(-10.0, 10.0, 100_000)]
    s, _ = timed(lambda: [exprlang.evaluate(expr, p) for p in points])
    report("`exprlang`", "tree-walk evaluation, 1e5 points",
           f"{1e6 * s / len(points):.2f} µs/eval")

    atoms = KernelSpec(1, (CompoundPoissonAtoms(((2.0, (0.5,)),
                                                 (2.0, (-0.5,)))),))
    sim = ThinningSimulator(atoms, SimConfig(1.0, 0.1, 7))
    s, ens = timed(lambda: sim.ensemble((0.0,), 100_000))
    report("simulator, state-independent", "atoms, 1e5 paths",
           f"{s:.2f} s ({1e6 * s / 1e5:.1f} µs/path)")
    for name, fn in (("martingale", lambda: martingale_test(ens, 1.0)),
                     ("moment identity",
                      lambda: second_moment_identity(ens, atoms, 1.0)),
                     ("QV", lambda: qv_comparison(ens, atoms, 1.0))):
        s, _ = timed(fn)
        report("estimators, 1e5 atom paths", name, f"{s:.2f} s")
    del ens

    vo = variable_order_kernel()
    sim = ThinningSimulator(vo, SimConfig(1.0, workloads.VO_EPS, 31415),
                            rate_grid=default_grid(1).points)
    s, ens = timed(lambda: sim.ensemble((0.0,), 100))
    jumps = sum(p.n_jumps for p in ens.paths)
    report("simulator, state-dependent", "variable order, ε = 0.05, "
           "100 paths", f"{1e3 * s / 100:.1f} ms/path "
           f"({1e6 * s / jumps:.0f} µs/jump)")

    grid = default_grid(2, 2.0, 5)
    const = cone_kernel(coeffs.constant(1.0), coeffs.constant(1.5),
                        coeffs.constant(1.0))
    s, _ = timed(lambda: run_all(const, grid))
    report("validation, state-independent 2d cone", "5×5 grid", f"{s:.1f} s")
    case = workloads.make_cone(0)
    ca, cb = case.params["c"]
    pa, pb = case.params["c0"]
    dep = cone_kernel(
        coeffs.from_source(f"{ca!r} + {cb!r}/(1 + |x|^2)", ca, ca + cb),
        coeffs.inverse_quadratic_bump(1.0, 0.5),
        coeffs.from_source(f"{pa!r} + {pb!r}*x[1]^2/(1 + |x|^2)", pa,
                           pa + pb))
    s, _ = timed(lambda: run_all(dep, grid))
    report("validation, cone_validation_2d kernel", "5×5 grid", f"{s:.1f} s")

    work = OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "variable_order.cfg"
    cfg.write_text(workloads.make_variable_order(0).config, encoding="utf-8")
    try:
        for jobs in (1, 2):
            argv = ["analyze", str(cfg), "--jobs", str(jobs),
                    "--out", str(work / f"jobs{jobs}")]
            with contextlib.redirect_stdout(io.StringIO()):
                s, rc = timed(lambda: cli_main(argv))
            report("`jumplab analyze`", f"variable_order, --jobs {jobs}",
                   f"{s:.2f} s (exit {rc})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
