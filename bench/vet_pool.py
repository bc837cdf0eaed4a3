"""Runs every candidate config of a workload once and lists those that pass.

Usage, from the root of the repository::

    python3 bench/vet_pool.py WORKLOAD

Runs one operation for each config ``0 .. POOL_SIZE-1`` of the pool
that ``--seed`` selects from, prints each failure, and exits 1 if any
config fails.  jumplab's analyses gate at 3 standard errors, so a
correct program exits 1 on a few random configs in a hundred; the pool
must hold only configs on which every operation passes.
"""

from __future__ import annotations

import shutil
import sys

import workloads
from run import OUT, ROOT, run_operation


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0]
    work = OUT / f"vet-{name}"
    passing = []
    try:
        for index in range(workloads.POOL_SIZE):
            case = workloads.make_case(name, index, ROOT)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg = work / "config.cfg"
            cfg.write_text(case.config, encoding="utf-8")
            _, failures = run_operation(case, cfg, work / "out")
            for check, msg in failures:
                print(f"index {index}: {check}: {msg.strip()}")
            if not failures:
                passing.append(index)
            print(f"index {index}: {'pass' if not failures else 'FAIL'}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{name}: {len(passing)} of {workloads.POOL_SIZE} configs pass")
    return 0 if len(passing) == workloads.POOL_SIZE else 1


if __name__ == "__main__":
    sys.exit(main())
