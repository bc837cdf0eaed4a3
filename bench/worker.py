"""One benchmark operation: ``jumplab`` commands in a fresh process.

Usage::

    python3 bench/worker.py ROOT CONFIG OUT SPANS COMMAND [COMMAND ...]

Imports jumplab from ``ROOT/src``, parses ``CONFIG`` and runs
``jumplab COMMAND CONFIG --jobs 1 --out OUT`` through
``jumplab.cli.main`` for each command in turn, stopping at the first
non-zero exit code.  Unless ``SPANS`` is ``-`` the layers are traced and
the spans are written there.  The last line of standard output is one
JSON object with the exit code and the measurements.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from this line

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(root, config, out, spans, *commands):
    sys.path.insert(0, os.path.join(root, "src"))
    import jumplab.cli
    import jumplab.config

    trace = None
    if spans != "-":
        import tracer

        trace = tracer.install()
    loading = time.perf_counter()
    jumplab.config.load_config(config)
    parsed = time.perf_counter()

    cli_main = jumplab.cli.main
    if trace is not None:
        cli_main = trace.wrap("cli.main", cli_main)
    log = io.StringIO()
    rc = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(log):
        for command in commands:
            try:
                rc = cli_main([command, config, "--jobs", "1", "--out", out])
            except Exception:
                # a crash is a failed operation, reported with its traceback
                traceback.print_exc()
                rc = "crashed"
            if rc != 0:
                break
    wall = time.perf_counter() - start

    result = {
        "rc": rc,
        "log": log.getvalue(),
        "wall_s": wall,
        "setup_s": parsed - _STARTED,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if trace is not None:
        layers = tracer.layer_metrics(trace)
        layers["config.load_s"] = parsed - loading
        layers["cli.output_bytes"] = _tree_bytes(out)
        result["layers"] = layers
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({
                "columns": ["id", "name", "start", "end", "parent"],
                "spans": trace.spans,
                "by_name": {name: {"calls": trace.calls[name],
                                   "total_s": trace.total_s[name],
                                   "self_s": trace.self_s[name]}
                            for name in sorted(trace.calls)},
            }, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
