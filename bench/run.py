"""The jumplab benchmark: one workload, timed end to end or traced.

Usage, from the root of the repository::

    python3 bench/run.py --workload atoms_ensemble --seed 1 --seconds 25 --trace 0

Writes the workload's config for ``--seed``, then runs whole operations
until ``--seconds`` have passed.  An operation is the workload's
``jumplab`` command (two for variable_order) in a fresh process
(``worker.py``), followed by the checks of its outputs; it fails if a
command exits non-zero or crashes, or a check rejects an output.  With
``--trace 1`` each round is one untraced and one traced operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: each metric is the median
over the run's passing operations (the traced ones for per-layer
metrics).  Exits 2 without a result when jumplab cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the machine does

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Unrunnable(Exception):
    """The command could not be run at all, as opposed to failing."""


def run_operation(case, cfg, out, spans=None, timeout=RUN_LIMIT_S):
    """One command plus its checks: (worker result, check failures)."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(cfg),
           str(out), str(spans or "-"), *case.commands]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise Unrunnable(f"operation exceeded {timeout:.0f} s") from exc
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise Unrunnable(f"worker exited {proc.returncode} without a "
                         f"result:\n{proc.stderr}") from exc
    if result["rc"] != 0:
        return result, [("exit_code", f"jumplab exited {result['rc']}: "
                                      f"{result['log']}{proc.stderr}")]
    runs = [p for p in out.iterdir() if p.is_dir()]
    if len(runs) != 1:
        return result, [("output", f"expected one run directory in {out}")]
    return result, workloads.check_outputs(case, runs[0])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jumplab" / "cli.py").is_file():
        print(f"no jumplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    case = workloads.case_for(args.workload, args.seed, ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "config.cfg"
    cfg.write_text(case.config, encoding="utf-8")
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)

    plain, traced, failures = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    deadline = started + args.seconds
    round_ = [(plain, None)] + ([(traced, spans)] if args.trace else [])
    try:
        while True:
            for sink, span_file in round_:
                left = started + RUN_LIMIT_S - time.perf_counter()
                result, rejected = run_operation(case, cfg, work / "out",
                                                 span_file, max(left, 1.0))
                attempted += 1
                print(f"op {attempted}{' traced' if span_file else ''}: "
                      f"wall_s {result['wall_s']:.4f} setup_s "
                      f"{result['setup_s']:.4f} peak_rss_mb "
                      f"{result['peak_rss_mb']:.1f}"
                      f"{' FAILED' if rejected else ''}", file=sys.stderr)
                if rejected:
                    failed += 1
                    failures.extend(rejected)
                else:
                    sink.append(result)
            if time.perf_counter() >= deadline:
                break
    except Unrunnable as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, msg in failures:
        print(f"FAILED {args.workload} {name}: {msg}", file=sys.stderr)
    median = statistics.median
    metrics = {}
    if args.trace and traced and plain:
        # median_low keeps counts whole: it picks one operation's value
        values = {k: statistics.median_low(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["trace.wall_s"] = median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - median(
            r["wall_s"] for r in plain)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in UNITS.items()}
    elif not args.trace and plain:
        metrics = {k: {"value": median(r[k] for r in plain), "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
