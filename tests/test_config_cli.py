"""Config parsing, the command line driver, and its output layout."""

import json
from pathlib import Path as FSPath

import pytest

from jumplab import coeffs
from jumplab.cli import main
from jumplab.config import FirstCoordinatePositive, config_hash, load_config
from jumplab.errors import ConfigError
from jumplab.kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    ConeRestriction,
    HuntDifference,
    StableLikeSmall,
)
from jumplab.svgplot import Figure

CONFIGS = FSPath(__file__).resolve().parent.parent / "configs"

GOOD = """\
[kernel]
dimension = 1
components = small

[component.small]
family = stable_like_small
c = 1.0
alpha = 1 + 0.5/(1 + |x|^2)
alpha_bounds = 1.0, 1.5

[grid]
extent = 3
points = 11

[sim]
t_end = 1.0
epsilon = 0.05
base_seed = 777
n_paths = 50
x0 = 0.0

[output]
write_paths = true

[analysis.martingale]
t = 1.0
"""


# one component, [component.main], over an optional [component.base]
ONE_COMPONENT = """\
[kernel]
dimension = 1
components = main

[component.main]
{main}
[component.base]
family = big_jump_power_law
c0 = 2.0
beta1 = 3.0

[grid]
extent = 2
points = 5

[sim]
t_end = 1.0
epsilon = 0.1
base_seed = 1
n_paths = 1
x0 = 0.0
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestCoefficients:
    def test_constant(self):
        c = coeffs.constant(2.5)
        assert c.is_constant()
        assert c((1.0, 2.0)) == 2.5

    def test_from_source(self):
        c = coeffs.from_source("1 + |x|", 1.0, 11.0)
        assert c((3.0, 4.0)) == 6.0
        assert not c.is_constant()

    def test_bump(self):
        c = coeffs.inverse_quadratic_bump(1.0, 0.5)
        assert c((0.0,)) == 1.5
        assert c.lo == 1.0
        assert c.hi == 1.5


class TestLoadConfig:
    def test_good_config(self, tmp_path):
        cfg = load_config(write(tmp_path, GOOD))
        assert cfg.kernel.d == 1
        comp = cfg.kernel.components[0]
        assert isinstance(comp, StableLikeSmall)
        assert comp.alpha.lo == 1.0
        assert comp.alpha.hi == 1.5
        assert cfg.sim.base_seed == 777
        assert cfg.n_paths == 50
        assert len(cfg.grid.points) == 11
        assert [a.name for a in cfg.analyses] == ["martingale"]

    def test_hash_is_content_hash(self, tmp_path):
        p = write(tmp_path, GOOD)
        cfg = load_config(p)
        assert cfg.hash == config_hash(GOOD)

    def test_missing_seed(self, tmp_path):
        bad = GOOD.replace("base_seed = 777\n", "")
        with pytest.raises(ConfigError, match="base_seed"):
            load_config(write(tmp_path, bad))

    def test_wrong_dimension_coordinate(self, tmp_path):
        bad = GOOD.replace("alpha = 1 + 0.5/(1 + |x|^2)",
                           "alpha = 1 + 0.1*x[2]")
        with pytest.raises(ConfigError, match=r"x\[2\]"):
            load_config(write(tmp_path, bad))

    def test_unknown_family(self, tmp_path):
        bad = GOOD.replace("family = stable_like_small",
                           "family = levy_flight")
        with pytest.raises(ConfigError, match="levy_flight"):
            load_config(write(tmp_path, bad))

    def test_bad_expression_is_flagged(self, tmp_path):
        bad = GOOD.replace("c = 1.0", "c = 1 + * 2")
        with pytest.raises(ConfigError, match="component.small"):
            load_config(write(tmp_path, bad))

    def test_x0_dimension_mismatch(self, tmp_path):
        bad = GOOD.replace("x0 = 0.0", "x0 = 0.0, 1.0")
        with pytest.raises(ConfigError, match="x0"):
            load_config(write(tmp_path, bad))

    def test_families_no_shipped_config_uses(self, tmp_path):
        def load(body):
            text = ONE_COMPONENT.format(main=body)
            return load_config(write(tmp_path, text)).kernel.components[0]

        def missing(body, key, message):
            cut = "".join(line for line in body.splitlines(True)
                          if not line.startswith(f"{key} ="))
            with pytest.raises(ConfigError, match=message):
                load(cut)

        x = (0.7,)
        body = ("family = big_jump_stretched_exp\nc0 = 2.0\nlambda = 0.5\n"
                "beta2 = 0.75\nbeta2_bounds = 0.5, 1\n")
        comp = load(body)
        assert isinstance(comp, BigJumpStretchedExp)
        assert (comp.c0(x), comp.lam, comp.beta2(x)) == (2.0, 0.5, 0.75)
        assert (comp.c0.lo, comp.c0.hi) == (2.0, 2.0)
        assert (comp.beta2.lo, comp.beta2.hi) == (0.5, 1.0)
        missing(body, "lambda", r"\[component\.main\] missing lambda")

        body = ("family = hunt_difference\nc = 1.5\n"
                "alpha_r = 1 + 0.5*clamp(r, 0, 1)\nalpha_r_bounds = 0.9, 1.6\n")
        comp = load(body)
        assert isinstance(comp, HuntDifference)
        assert (comp.c(x), comp.alpha_r((0.5,))) == (1.5, 1.25)
        assert (comp.c.lo, comp.c.hi) == (1.5, 1.5)
        assert (comp.alpha_r.lo, comp.alpha_r.hi) == (0.9, 1.6)
        missing(body, "alpha_r", r"\[component\.main\] missing.*alpha_r")
        # without bounds: observed over radii 1e-4 .. 1e4
        comp = load(body.replace("alpha_r_bounds = 0.9, 1.6\n", ""))
        assert comp.alpha_r.lo == pytest.approx(1.00005)
        assert comp.alpha_r.hi == 1.5

        body = ("family = cone_restriction\nbase = base\n"
                "predicate = first_positive\n")
        comp = load(body)
        assert isinstance(comp, ConeRestriction)
        assert isinstance(comp.base, BigJumpPowerLaw)
        assert (comp.base.c0(x), comp.base.beta1(x)) == (2.0, 3.0)
        assert (comp.base.beta1.lo, comp.base.beta1.hi) == (3.0, 3.0)
        assert isinstance(comp.predicate, FirstCoordinatePositive)
        assert comp.symmetric is False
        missing(body, "base", r"\[component\.main\] missing base")
        missing(body, "predicate", r"\[component\.main\] unknown predicate")

        body = ("family = stable_like_small\nc = 1.0\nalpha = 1.5\n"
                "bass_normalized = true\n")
        comp = load(body)
        assert isinstance(comp, StableLikeSmall)
        assert comp.bass_normalized is True
        assert (comp.c(x), comp.alpha(x)) == (1.0, 1.5)
        assert (comp.alpha.lo, comp.alpha.hi) == (1.5, 1.5)
        assert load(body.replace("true", "false")).bass_normalized is False
        missing(body, "alpha",
                r"\[component\.main\] missing coefficient 'alpha'")

    def test_envelope_section_is_rejected(self, tmp_path):
        # a config cannot supply the z samples that check_envelopes needs,
        # so an [envelope] would be parsed and never checked
        text = GOOD + ("\n[component.upper]\nfamily = stable_like_small\n"
                       "c = 0.01\nalpha = 1.2\n\n"
                       "[envelope]\nnu2_components = upper\n")
        with pytest.raises(ConfigError, match=r"\[envelope\]"):
            load_config(write(tmp_path, text))

    def test_shipped_configs_parse(self):
        for f in sorted(CONFIGS.glob("*.cfg")):
            cfg = load_config(f)
            assert cfg.kernel.d in (1, 2, 3)


class TestCliExitCodes:
    def test_validate_pass(self, tmp_path):
        p = write(tmp_path, GOOD)
        assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_validate_fail(self, tmp_path):
        code = main([
            "validate", str(CONFIGS / "divergent_power_law.cfg"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_config_error(self, tmp_path):
        p = write(tmp_path, "[kernel]\ndimension = 9\n")
        assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_simulate_blocked_without_force(self, tmp_path):
        bad = CONFIGS / "divergent_power_law.cfg"
        assert main(["simulate", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    def test_analyze_pass(self, tmp_path):
        p = write(tmp_path, GOOD)
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_simulate_covers_x0_off_the_grid(self, tmp_path, capsys):
        # c peaks at x0 = 0, which the 2-point grid {-2, 2} misses: the
        # dominating rate must be taken over x0 as well
        text = GOOD.replace("c = 1.0\n", "c = 1 + 2/(1 + |x|^2)\n") \
            .replace("alpha = 1 + 0.5/(1 + |x|^2)\nalpha_bounds = 1.0, 1.5",
                     "alpha = 1.0") \
            .replace("extent = 3\npoints = 11", "extent = 2\npoints = 2")
        p = write(tmp_path, text)
        assert main(["simulate", str(p), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("simulated 50 paths")

    @pytest.mark.parametrize("section, line", [
        ("martingale", "t = abc"),
        ("moment_identity", "rtol = abc"),
        ("lil", "direction = abc"),
    ])
    def test_non_numeric_analysis_parameter(self, tmp_path, capsys,
                                            section, line):
        text = GOOD.replace("[analysis.martingale]\nt = 1.0\n",
                            f"[analysis.{section}]\n{line}\n")
        p = write(tmp_path, text)
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 2
        key = line.split(" = ")[0]
        assert (f"config error: [analysis.{section}] {key} = 'abc' is not "
                "numeric") in capsys.readouterr().err

    @pytest.mark.parametrize("section, line, message", [
        ("martingale", "t = abc", "t = 'abc' is not numeric"),
        ("generator", "function = cube", "unknown function 'cube'"),
        ("lil", "t_start = 3", "t_start must be >= e^e"),
        ("lil", "direction = 1, 0", "direction has wrong dimension"),
    ])
    def test_analysis_parameters_checked_first(self, tmp_path, capsys,
                                               section, line, message):
        # a typo costs no validation or simulation, and leaves no files
        text = GOOD.replace("[analysis.martingale]\nt = 1.0\n",
                            f"[analysis.{section}]\n{line}\n")
        p = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["analyze", str(p), "--out", str(out)]) == 2
        assert (f"config error: [analysis.{section}] {message}"
                in capsys.readouterr().err)
        assert not (out / config_hash(text) / "reports"
                    / "validation.txt").exists()
        assert not list(out.rglob("path_*.csv"))

    @pytest.mark.parametrize("section", ["martingale", "moment_identity",
                                         "qv"])
    def test_analysis_time_past_t_end(self, tmp_path, capsys, section):
        text = GOOD.replace("[analysis.martingale]\nt = 1.0\n",
                            f"[analysis.{section}]\nt = 2.0\n")
        p = write(tmp_path, text)
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: [analysis.{section}] t = 2.0 lies outside "
                "[0, t_end = 1.0]") in capsys.readouterr().err


class TestOutputLayout:
    def test_directories_and_manifest(self, tmp_path):
        p = write(tmp_path, GOOD)
        out = tmp_path / "o"
        assert main(["analyze", str(p), "--out", str(out)]) == 0
        run = out / config_hash(GOOD)
        assert (run / "reports" / "validation.txt").exists()
        assert (run / "reports" / "martingale.csv").exists()
        assert (run / "plots" / "martingale.svg").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(GOOD)
        listed = {f["path"] for f in manifest["files"]}
        assert "reports/martingale.csv" in listed

    def test_simulate_writes_paths(self, tmp_path):
        p = write(tmp_path, GOOD)
        out = tmp_path / "o"
        assert main(["simulate", str(p), "--out", str(out)]) == 0
        paths = list((out / config_hash(GOOD) / "paths").glob("*.csv"))
        assert len(paths) == 50

    def test_analyze_writes_the_paths_simulate_writes(self, tmp_path):
        p = write(tmp_path, GOOD)
        sim_out, an_out = tmp_path / "s", tmp_path / "a"
        assert main(["simulate", str(p), "--out", str(sim_out)]) == 0
        assert main(["analyze", str(p), "--out", str(an_out)]) == 0
        simulated = sim_out / config_hash(GOOD) / "paths"
        run = an_out / config_hash(GOOD)
        names = sorted(f.name for f in simulated.glob("*.csv"))
        assert len(names) == 50
        assert sorted(f.name for f in (run / "paths").glob("*.csv")) == names
        for name in names:
            assert (run / "paths" / name).read_bytes() == \
                (simulated / name).read_bytes()
        manifest = json.loads((run / "manifest.json").read_text())
        listed = {f["path"] for f in manifest["files"]}
        assert {f"paths/{name}" for name in names} <= listed

    def test_rerun_is_byte_identical(self, tmp_path):
        p = write(tmp_path, GOOD)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", str(p), "--out", str(out1)]) == 0
        assert main(["analyze", str(p), "--out", str(out2)]) == 0
        run1 = out1 / config_hash(GOOD)
        run2 = out2 / config_hash(GOOD)
        files1 = sorted(f.relative_to(run1) for f in run1.rglob("*")
                        if f.is_file())
        files2 = sorted(f.relative_to(run2) for f in run2.rglob("*")
                        if f.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "manifest.json":
                continue  # contains wall-clock timing
            assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        p = write(tmp_path, GOOD)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(p), "--out", str(out1)])
        main(["simulate", str(p), "--out", str(out2),
              "--seed-override", "778"])
        f1 = next((out1 / config_hash(GOOD) / "paths").glob("*.csv"))
        f2 = (out2 / config_hash(GOOD) / "paths") / f1.name
        assert f1.read_bytes() != f2.read_bytes()

    def test_jumplab_out_env(self, tmp_path, monkeypatch):
        p = write(tmp_path, GOOD)
        monkeypatch.setenv("JUMPLAB_OUT", str(tmp_path / "env_out"))
        assert main(["validate", str(p)]) == 0
        assert (tmp_path / "env_out" / config_hash(GOOD)).exists()


class TestSvg:
    def test_render_contains_series(self, tmp_path):
        fig = Figure(title="demo", xlabel="t", ylabel="v")
        fig.line([1, 2, 3], [1.0, 0.5, 0.25], label="decay")
        fig.scatter([1, 2], [0.3, 0.4], label="pts")
        fig.hline(1.0, label="limit")
        svg = fig.render()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "circle" in svg
        assert "demo" in svg
        f = tmp_path / "fig.svg"
        fig.save(f)
        assert f.read_text() == svg

    def test_log_axis(self):
        fig = Figure(log_x=True)
        fig.line([1.0, 10.0, 100.0], [0.0, 1.0, 2.0])
        svg = fig.render()
        assert "1e1" in svg
