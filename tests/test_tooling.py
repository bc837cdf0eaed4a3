"""Project tooling: the benchmark's tracer against the library it
instruments, guards against dead code, against checks that no config
reaches and against config keys that no document names, and a count of
the coefficient evaluations that loading a config makes."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(code):
    """Run ``code`` after ``t = tracer.install()`` in a fresh process;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; t = tracer.install()\n" + code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs():
    # bench/tracer.py wraps kernel moments, component tail masses and
    # validator and estimator functions by name, so a rename in the
    # library breaks traced benchmark runs and nothing else
    _traced("")


def test_tracer_counts_every_block():
    # analyze simulates a block of paths at a time through
    # ThinningSimulator.ensemble, which the tracer wraps to count paths
    # and jumps: its counts must cover every block
    out = _traced("""
import json, pathlib, tempfile
from jumplab import cli
from jumplab.simulator import read_path_csv
cli._BLOCK_PROPOSALS = 500
out = pathlib.Path(tempfile.mkdtemp())
code = cli.main(["analyze", "configs/compound_poisson_d1.cfg",
                 "--out", str(out)])
jumps = 0
for f in out.rglob("path_*.csv"):
    with open(f, encoding="utf-8") as fh:
        jumps += read_path_csv(fh).n_jumps
print(json.dumps({"code": code, "jumps": jumps,
                  "blocks": t.calls["simulator.ensemble"],
                  "layers": tracer.layer_metrics(t)}))
""")
    got = json.loads(out.strip().splitlines()[-1])
    assert got["code"] == 0
    # 6 proposals a path: blocks of 83 of the 500 paths
    assert got["blocks"] == 7
    assert got["layers"]["simulator.paths"] == 500
    assert got["layers"]["simulator.jumps"] == got["jumps"] > 0


def test_tracer_sees_every_check_of_run_all():
    # run_all must reach its checks through the module globals, and the
    # checks the kernel through its named moments, or a traced run
    # times and counts nothing of them
    out = _traced("""
import json
from jumplab import coeffs, config, kernels, validators
base = kernels.StableLikeSmall(coeffs.constant(1.0),
                               coeffs.inverse_quadratic_bump(1.0, 0.5))
cone = kernels.ConeRestriction(base, config.PREDICATES["first_positive"]())
validators.run_all(kernels.KernelSpec(1, (cone,)),
                   validators.default_grid(1, 2.0, 5))
print(json.dumps({"checks": tracer._CHECKS, "calls": t.calls}))
""")
    got = json.loads(out)
    want = {f"validators.{name}" for name in got["checks"]} | {
        "kernels.second_moment", "kernels.drift_tail",
        "kernels.diffusion_matrix"}
    assert len(got["checks"]) == 4
    assert want <= set(got["calls"])


def test_run_all_reaches_every_check(monkeypatch):
    # a check that run_all never calls is reachable from Python alone:
    # one kernel with a part of every family that has its own checks
    # must reach every check_* that validators exports
    from jumplab import coeffs, kernels, validators

    checks = {name for name in validators.__all__
              if name.startswith("check_")}
    called = set()
    for name in checks:
        def recorded(*args, _name=name, _check=getattr(validators, name)):
            called.add(_name)
            return _check(*args)

        monkeypatch.setattr(validators, name, recorded)
    bump = coeffs.inverse_quadratic_bump
    kernel = kernels.KernelSpec(1, (
        kernels.StableLikeSmall(bump(1.0, 0.5), bump(1.0, 0.5)),
        kernels.BigJumpPowerLaw(bump(1.0, 0.5), coeffs.constant(3.0)),
        kernels.BigJumpStretchedExp(bump(1.0, 0.3), 1.0,
                                    coeffs.constant(0.5)),
        kernels.HuntDifference(bump(1.0, 0.3), coeffs.from_source(
            "0.5 + 2*clamp(r, 0, 1)", 0.5, 2.5)),
    ))
    validators.run_all(kernel, validators.default_grid(1, 2.0, 5))
    assert called == checks


def _read_names(tree):
    """Every name the module reads, attribute names included."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store))}


def _defined_names(node):
    """The names a module-level statement binds, imports aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_dead_code():
    # no linter ships with the project: an import that its module never
    # reads, or a private module-level name that no module reads or
    # imports, fails here; __init__.py is skipped, because its imports
    # are the public API
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "jumplab").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _read_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    problems = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        read = _read_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        problems.append(f"{name}:{node.lineno} unused "
                                        f"import {bound}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                   ast.Assign, ast.AnnAssign)):
                problems += [f"{name}:{node.lineno} {private} is never read"
                             for private in _defined_names(node)
                             if private.startswith("_")
                             and not private.startswith("__")
                             and private not in referenced]
    assert not problems, "\n".join(problems)


def test_loading_a_config_evaluates_no_coefficient(monkeypatch):
    # the validators are the one place that evaluates coefficients over
    # the grid; loading a config only parses them
    from jumplab import config, exprlang

    calls = []
    evaluate = exprlang.evaluate

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(exprlang, "evaluate", counted)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        config.load_config(path)
    assert calls == []


def _shipped_parsers(monkeypatch):
    """The parsers that loading each of ``configs/*.cfg`` used, with the
    keys each was asked for."""
    from jumplab import config

    parsers = []

    class Recorded(config._Parser):
        def __init__(self):
            super().__init__()
            parsers.append(self)

    monkeypatch.setattr(config, "_Parser", Recorded)
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        config.load_config(path)
    return parsers


def test_every_config_key_is_named(monkeypatch):
    # a key the loader asks for that README.md never names and no shipped
    # config sets is an option only the source shows
    parsers = _shipped_parsers(monkeypatch)
    asked = {key for p in parsers for keys in p.asked.values()
             for key in keys}
    shipped = {key for p in parsers for section in p.sections()
               for key in p.options(section)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # README names every coefficient's bounds at once, as `*_bounds`
    named = set(re.findall(r"`([\w*]+)", readme))
    hidden = sorted(key for key in asked - shipped if key not in named
                    and not (key.endswith("_bounds") and "*_bounds" in named))
    assert hidden == []


def test_every_sim_field_is_a_config_key(monkeypatch):
    # a SimConfig field that no [sim] key sets is a setting only the
    # Python API has; the API and the config language set the same ones
    from dataclasses import fields

    from jumplab.simulator import SimConfig

    asked = {key for p in _shipped_parsers(monkeypatch)
             for key in p.asked.get("sim", ())}
    assert sorted(f.name for f in fields(SimConfig) if f.name not in asked) \
        == []
