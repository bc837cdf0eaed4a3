"""Spans and counters recorded around jumplab's public functions.

:func:`install` replaces the public functions and methods of each
jumplab module, in the running process only, with wrappers that time
every call.  Nothing in the program changes: functions that other
modules import by name are wrapped under each of those names too.

A span is (id, name, start, end, parent id).  Calls on the hot layers
(expression evaluation, kernel moments, quadrature, generator values)
run millions of times, so they are aggregated per name and not kept one
by one.  A name's self time is its duration minus the part covered by
the wrapped calls it makes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "install", "layer_metrics", "UNITS"]

UNITS = {
    "exprlang.evals": "count",
    "exprlang.const_evals": "count",
    "exprlang.self_s": "s",
    "kernels.moment_calls": "count",
    "kernels.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.self_s": "s",
    "validators.run_all_s": "s",
    "validators.grid_points": "count",
    "validators.second_moment_s": "s",
    "validators.zero_drift_s": "s",
    "validators.ellipticity_s": "s",
    "validators.index_regularity_s": "s",
    "simulator.init_s": "s",
    "simulator.ensemble_s": "s",
    "simulator.paths": "count",
    "simulator.jumps": "count",
    "simulator.us_per_path": "us",
    "simulator.ns_per_jump": "ns",
    "simulator.rate_evals": "count",
    "simulator.acceptance": "ratio",
    "simulator.ensemble_mb": "MB",
    "estimators.martingale_s": "s",
    "estimators.martingale_calls": "count",
    "estimators.qv_s": "s",
    "estimators.moment_identity_s": "s",
    "estimators.generator_s": "s",
    "estimators.apply_generator_calls": "count",
    "estimators.lil_s": "s",
    "config.load_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, span id, time in children]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.info = {}
        self.spans = []
        self._ids = 0

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name, fn, record=True, before=None, after=None):
        """``fn`` with its calls timed under ``name``.

        ``before(args)`` runs ahead of the call and ``after(args,
        result)`` behind it, both outside the timed interval.
        """
        stack = self.stack
        clock = time.perf_counter
        total_s, self_s, calls, spans = (self.total_s, self.self_s,
                                         self.calls, self.spans)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = None
            if record:
                span_id = self._ids = self._ids + 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total_s[name] += duration
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if record:
                    spans.append((span_id, name, start, end,
                                  stack[-1][1] if stack else None))
            if after is not None:
                after(args, result)
            return result

        return traced


_KERNEL_MOMENTS = ("second_moment", "diffusion_matrix", "total_mass_tail",
                   "dropped_variance", "drift_tail")
_COMPONENTS = ("StableLikeSmall", "BigJumpPowerLaw", "BigJumpStretchedExp",
               "CompoundPoissonAtoms", "ConeRestriction", "HuntDifference")
_CHECKS = ("check_second_moment", "check_zero_drift", "check_ellipticity",
           "check_index_regularity")
_ESTIMATORS = ("martingale_test", "second_moment_identity", "qv_comparison",
               "generator_martingale_test", "lil_statistics")


def install():
    """Wrap jumplab's layers in this process; returns the tracer."""
    from jumplab import (cli, config, estimators, exprlang, kernels,
                         quadrature, simulator, svgplot, validators)

    t = Tracer()
    counts = t.counts

    load = t.wrap("config.load_config", config.load_config)
    config.load_config = cli.load_config = load

    constant = {}  # id(expr) -> (expr, is_constant); holds expr so ids stay

    def count_constant(args):
        expr = args[0]
        hit = constant.get(id(expr))
        if hit is None:
            hit = constant[id(expr)] = (expr, expr.is_constant())
        if hit[1]:
            counts["const_evals"] += 1

    exprlang.evaluate = t.wrap("exprlang.evaluate", exprlang.evaluate,
                               record=False, before=count_constant)

    for method in _KERNEL_MOMENTS:
        setattr(kernels.KernelSpec, method,
                t.wrap(f"kernels.{method}",
                       getattr(kernels.KernelSpec, method), record=False))

    def count_rate_eval(args):
        # thinning asks each component for its tail rate once per proposal
        if t.parent() == "simulator.ensemble":
            counts["rate_evals"] += 1

    for cls_name in _COMPONENTS:
        cls = getattr(kernels, cls_name)
        cls.tail_mass = t.wrap("kernels.tail_mass", cls.tail_mass,
                               record=False, before=count_rate_eval)

    def count_evaluations(args, result):
        counts["integrand_evals"] += result.evaluations

    radial = t.wrap("quadrature.integrate_radial",
                    quadrature.integrate_radial, record=False,
                    after=count_evaluations)
    for module in (quadrature, kernels, validators, simulator, estimators):
        module.integrate_radial = radial

    def count_grid(args):
        counts["grid_points"] += len(args[1].points)

    validators.run_all = t.wrap("validators.run_all", validators.run_all,
                                before=count_grid)
    for name in _CHECKS:
        setattr(validators, name,
                t.wrap(f"validators.{name}", getattr(validators, name)))

    def note_simulator(args, result):
        sim = args[0]
        t.info.update(components=len(sim.kernel.components),
                      dominating_rate=sim.dominating_rate,
                      t_end=sim.config.t_end)

    def count_ensemble(args, ens):
        counts["paths"] += ens.n_paths
        for p in ens.paths:
            counts["jumps"] += p.n_jumps
            counts["ensemble_bytes"] += (p.jump_times.nbytes
                                         + p.jump_vectors.nbytes)

    sim_cls = simulator.ThinningSimulator
    sim_cls.__init__ = t.wrap("simulator.init", sim_cls.__init__,
                              after=note_simulator)
    sim_cls.ensemble = t.wrap("simulator.ensemble", sim_cls.ensemble,
                              after=count_ensemble)

    for name in _ESTIMATORS:
        setattr(estimators, name,
                t.wrap(f"estimators.{name}", getattr(estimators, name)))
    estimators.apply_generator = t.wrap(
        "estimators.apply_generator", estimators.apply_generator,
        record=False)

    svgplot.Figure.save = t.wrap("cli.figure_save", svgplot.Figure.save)
    cli.write_path_csv = t.wrap("cli.write_path_csv", cli.write_path_csv)
    return t


def _layer(mapping, layer):
    return sum(v for k, v in mapping.items() if k.startswith(layer + "."))


def layer_metrics(t):
    """The per-layer metrics of one traced command, by name."""
    tot, own, calls, counts = t.total_s, t.self_s, t.calls, t.counts
    paths, jumps = counts["paths"], counts["jumps"]
    ensemble_s = tot["simulator.ensemble"]
    rate_evals = counts["rate_evals"]
    if rate_evals:
        proposals = rate_evals / t.info["components"]
    else:
        # state-independent thinning draws its proposals in one array
        # call; the expected count lambda_bar * t_end per path stands in
        proposals = t.info.get("dominating_rate", 0.0) \
            * t.info.get("t_end", 0.0) * paths
    return {
        "exprlang.evals": calls["exprlang.evaluate"],
        "exprlang.const_evals": counts["const_evals"],
        "exprlang.self_s": own["exprlang.evaluate"],
        "kernels.moment_calls": _layer(calls, "kernels"),
        "kernels.self_s": _layer(own, "kernels"),
        "quadrature.calls": calls["quadrature.integrate_radial"],
        "quadrature.integrand_evals": counts["integrand_evals"],
        "quadrature.self_s": own["quadrature.integrate_radial"],
        "validators.run_all_s": tot["validators.run_all"],
        "validators.grid_points": counts["grid_points"],
        "validators.second_moment_s": own["validators.check_second_moment"],
        "validators.zero_drift_s": own["validators.check_zero_drift"],
        "validators.ellipticity_s": own["validators.check_ellipticity"],
        "validators.index_regularity_s":
            own["validators.check_index_regularity"],
        "simulator.init_s": tot["simulator.init"],
        "simulator.ensemble_s": ensemble_s,
        "simulator.paths": paths,
        "simulator.jumps": jumps,
        "simulator.us_per_path": 1e6 * ensemble_s / paths if paths else 0.0,
        "simulator.ns_per_jump": 1e9 * ensemble_s / jumps if jumps else 0.0,
        "simulator.rate_evals": rate_evals,
        "simulator.acceptance": jumps / proposals if proposals else 0.0,
        "simulator.ensemble_mb": counts["ensemble_bytes"] / 1e6,
        "estimators.martingale_s": tot["estimators.martingale_test"],
        "estimators.martingale_calls": calls["estimators.martingale_test"],
        "estimators.qv_s": tot["estimators.qv_comparison"],
        "estimators.moment_identity_s":
            tot["estimators.second_moment_identity"],
        "estimators.generator_s": tot["estimators.generator_martingale_test"],
        "estimators.apply_generator_calls":
            calls["estimators.apply_generator"],
        "estimators.lil_s": tot["estimators.lil_statistics"],
        "cli.output_s": tot["cli.figure_save"] + tot["cli.write_path_csv"],
    }
