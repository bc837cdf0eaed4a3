"""Config parsing, the command line driver, and its output layout."""

import json
import math
import tracemalloc
from pathlib import Path as FSPath

import pytest

from jumplab import cli, coeffs
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


# every jump lies on one line: the least eigenvalue of a(x) is 0, and
# rounds to -5.55e-17; along (1, 1) the LIL statistic is defined
DEGENERATE_LIL_2D = """\
[kernel]
dimension = 2
components = atoms

[component.atoms]
family = compound_poisson_atoms
atoms = 2.0: 0.3, 0.9; 2.0: -0.3, -0.9

[sim]
t_end = 200.0
epsilon = 0.1
base_seed = 11
n_paths = 4
x0 = 0.0, 0.0

[output]
write_paths = false

[analysis.lil]
direction = 1.0, 1.0
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
        assert (comp.c0.lo, comp.c0.hi) == (-math.inf, math.inf)
        assert (comp.beta2.lo, comp.beta2.hi) == (0.5, 1.0)
        missing(body, "lambda", r"\[component\.main\] missing lambda")

        body = ("family = hunt_difference\nc = 1.5\n"
                "alpha_r = 1 + 0.5*clamp(r, 0, 1)\nalpha_r_bounds = 0.9, 1.6\n")
        comp = load(body)
        assert isinstance(comp, HuntDifference)
        assert (comp.c(x), comp.alpha_r((0.5,))) == (1.5, 1.25)
        assert (comp.c.lo, comp.c.hi) == (-math.inf, math.inf)
        assert (comp.alpha_r.lo, comp.alpha_r.hi) == (0.9, 1.6)
        missing(body, "alpha_r", r"\[component\.main\] missing.*alpha_r")
        # without bounds: nothing is evaluated when the config is loaded
        comp = load(body.replace("alpha_r_bounds = 0.9, 1.6\n", ""))
        assert (comp.alpha_r.lo, comp.alpha_r.hi) == (-math.inf, math.inf)

        body = ("family = cone_restriction\nbase = base\n"
                "predicate = first_positive\n")
        comp = load(body)
        assert isinstance(comp, ConeRestriction)
        assert isinstance(comp.base, BigJumpPowerLaw)
        assert (comp.base.c0(x), comp.base.beta1(x)) == (2.0, 3.0)
        assert (comp.base.beta1.lo, comp.base.beta1.hi) == (-math.inf,
                                                            math.inf)
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
        assert (comp.alpha.lo, comp.alpha.hi) == (-math.inf, math.inf)
        assert load(body.replace("true", "false")).bass_normalized is False
        missing(body, "alpha",
                r"\[component\.main\] missing coefficient 'alpha'")

    def test_envelope_section_is_rejected(self, tmp_path):
        # nothing reads an [envelope]: the grid checks certify what the
        # envelopes would, so it would be parsed and never checked
        text = GOOD + ("\n[component.upper]\nfamily = stable_like_small\n"
                       "c = 0.01\nalpha = 1.2\n\n"
                       "[envelope]\nnu2_components = upper\n")
        with pytest.raises(ConfigError, match=r"\[envelope\] .* the "
                           r"second_moment, ellipticity, big_jump and hunt "
                           r"checks"):
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

    @pytest.mark.parametrize("body, message", [
        ("family = cone_restriction\nbase = main\n"
         "predicate = first_positive\n",
         "base [component.main] is itself a cone restriction"),
        ("family = compound_poisson_atoms\natoms = -1.0: 0.5\n",
         "atom weight -1.0 must be >= 0"),
        ("family = compound_poisson_atoms\natoms = 1.0: 0.0\n",
         "atoms must exclude the origin"),
        ("family = cone_restriction\nbase = atoms\n"
         "predicate = first_positive\n\n[component.atoms]\n"
         "family = compound_poisson_atoms\natoms = 1.0: 0.5\n",
         "cone restriction of an atomic component is not supported"),
        ("family = cone_restriction\nbase = missing\n"
         "predicate = first_positive\n",
         "no section [component.missing]"),
    ], ids=["cone_over_itself", "negative_atom_weight", "atom_at_origin",
            "cone_over_atoms", "missing_base"])
    def test_malformed_component(self, tmp_path, capsys, body, message):
        p = write(tmp_path, ONE_COMPONENT.format(main=body))
        assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: [component.main] {message}"
                in capsys.readouterr().err)

    def test_zero_drift_out_of_domain_coefficient(self, tmp_path):
        # alpha(-10) = 2.5 lies outside (0, 2): the drift check fails with
        # that witness, as the second-moment and ellipticity checks do
        body = ("family = cone_restriction\nbase = small\n"
                "predicate = first_positive\n\n[component.small]\n"
                "family = stable_like_small\nc = 1.0\n"
                "alpha = 1.5 + 0.1*|x|\n")
        text = ONE_COMPONENT.format(main=body).replace(
            "extent = 2", "extent = 10")
        p = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["validate", str(p), "--out", str(out)]) == 1
        report = (out / config_hash(text) / "reports"
                  / "validation.txt").read_text()
        assert ("check zero_drift\n  verdict = fail\n"
                "  condition = vanishing drift of jumps above every "
                "threshold\n  witness = (-10.0,)\n"
                "  error = 'alpha(x)=2.5 outside (0, 2) at x=(-10.0,)'\n"
                in report)

    @pytest.mark.parametrize("body, check, witness, error", [
        ("family = big_jump_power_law\nc0 = 1\nbeta1 = 3 + log(x[1])\n"
         "beta1_bounds = 3, 4\n", "big_jump", "(-2.0,)",
         "log of non-positive value -2.0"),
        ("family = hunt_difference\nc = sqrt(x[1])\nc_bounds = 0, 2\n"
         "alpha_r = 0.5 + 2*clamp(r, 0, 1)\n", "hunt", "(-2.0,)",
         "sqrt of negative value -2.0"),
        ("family = hunt_difference\nc = 1.0\n"
         "alpha_r = 0.5 + sqrt(2 - r)\n", "hunt", "('radial',)",
         "radial second-moment integral: sqrt of negative value"),
        ("family = stable_like_small\nc = 1.0\n"
         "alpha = 1 + 0.5*sqrt(x[1])\nalpha_bounds = 1, 2\n",
         "index_regularity", "(-2.0,)", "sqrt of negative value -2.0"),
        ("family = big_jump_power_law\nc0 = 1\n"
         "beta1 = 3 + exp(400*x[1])\n", "big_jump", "(2.0,)",
         "exp of 800.0 overflows"),
        ("family = big_jump_power_law\nc0 = 1\n"
         "beta1 = 3 + sin(1e400*x[1])\n", "big_jump", "(-2.0,)",
         "sin of -inf is undefined"),
    ], ids=["big_jump_beta1", "hunt_c", "hunt_alpha_r", "index_alpha",
            "big_jump_exp_overflow", "big_jump_sin_of_inf"])
    def test_coefficient_that_raises_fails_with_witness(
            self, tmp_path, body, check, witness, error):
        # the grid runs from -2 to 2: each coefficient raises first at -2,
        # or at 2 where exp overflows, and the family check reports that
        # point instead of crashing; 1e400 reads as inf, so sin's argument
        # at -2 is -inf
        text = ONE_COMPONENT.format(main=body + (
            "\n[component.small]\nfamily = stable_like_small\nc = 1\n"
            "alpha = 1.5\n")).replace("components = main",
                                      "components = small, main")
        p = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["validate", str(p), "--out", str(out)]) == 1
        root = out / config_hash(text)
        report = (root / "reports" / "validation.txt").read_text()
        block = report.split(f"check {check}\n")[-1].split("check ")[0]
        assert "  verdict = fail\n" in block
        assert f"  witness = {witness}\n" in block
        assert f"  error = '{error}" in block
        assert (root / "manifest.json").is_file()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_forced_run_names_the_state_its_rate_raises_at(
            self, tmp_path, capsys, command):
        # validation fails at x = -2 and is forced past: the dominating
        # rate, taken over the same grid, stops there and says where
        text = ONE_COMPONENT.format(main=(
            "family = big_jump_power_law\nc0 = 1\nbeta1 = 3 + log(x[1])\n"
            "\n[component.small]\nfamily = stable_like_small\nc = 1\n"
            "alpha = 1.5\n")).replace(
                "components = main", "components = small, main").replace(
                "n_paths = 1\nx0 = 0.0",
                "n_paths = 2\nx0 = 1.0\n\n[analysis.martingale]\nt = 1.0")
        p = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert main([command, str(p), "--out", out, "--force"]) == 1
        assert capsys.readouterr().err == (
            "error: dominating rate at x=(-2.0,): "
            "log of non-positive value -2.0\n")

    @pytest.mark.parametrize("old, new, message", [
        ("t_end = 1.0", "t_end = abc", "t_end = 'abc' is not numeric"),
        ("epsilon = 0.05", "epsilon = small",
         "epsilon = 'small' is not numeric"),
        ("base_seed = 777", "base_seed = 1.5",
         "base_seed = '1.5' is not an integer"),
        ("t_end = 1.0\n", "", "missing t_end"),
        ("epsilon = 0.05\n", "", "missing epsilon"),
        ("base_seed = 777\n", "", "missing base_seed"),
        ("t_end = 1.0", "t_end = -1.0", "t_end must be positive"),
        ("base_seed = 777", "base_seed = -5",
         "base_seed must lie in [0, 2^64), got -5"),
    ], ids=["t_end", "epsilon", "base_seed", "missing_t_end",
            "missing_epsilon", "missing_base_seed", "t_end_range",
            "base_seed_range"])
    def test_malformed_sim_key(self, tmp_path, capsys, old, new, message):
        text = GOOD.replace(old, new, 1)
        assert text != GOOD
        p = write(tmp_path, text)
        assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: [sim] {message}\n" == capsys.readouterr().err

    def test_lil_on_a_degenerate_kernel(self, tmp_path, capsys):
        p = write(tmp_path, DEGENERATE_LIL_2D)
        out = tmp_path / "o"
        code = main(["analyze", str(p), "--out", str(out), "--force"])
        assert code in (0, 1)
        verdict = capsys.readouterr().out
        assert verdict.startswith(("PASS", "FAIL"))
        assert " lil: coverage = " in verdict
        root = out / config_hash(DEGENERATE_LIL_2D)
        for f in ("reports/lil.csv", "plots/lil.svg",
                  "reports/analysis_summary.txt", "manifest.json"):
            assert (root / f).is_file()

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
        ("lil", "t_start = 16", "needs t_end >= e^e ~ 15.154, got 1.0"),
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

    @pytest.mark.parametrize("old, new, message", [
        ("dimension = 1", "dimension = one",
         "[kernel] dimension = 'one' is not an integer"),
        ("n_paths = 2000", "n_paths = many",
         "[sim] n_paths = 'many' is not an integer"),
        ("[sim]", "[grid]\npoints = 0\n\n[sim]",
         "[grid] points must be positive, got 0"),
        ("[sim]", "[grid]\npoints = -3\n\n[sim]",
         "[grid] points must be positive, got -3"),
        ("[sim]", "[grid]\nextent = wide\n\n[sim]",
         "[grid] extent = 'wide' is not numeric"),
        ("write_paths = false", "write_paths = maybe",
         "[output] write_paths = 'maybe' is not a boolean"),
        ("alpha = 1.0", "alpha = 1.0\nbass_normalized = perhaps",
         "[component.small] bass_normalized = 'perhaps' is not a boolean"),
        ("family = stable_like_small\nc = 1.0\nalpha = 1.0",
         "family = big_jump_stretched_exp\nc0 = 1.0\nlambda = steep\n"
         "beta2 = 1.0",
         "[component.small] lambda = 'steep' is not numeric"),
    ], ids=["dimension", "n_paths", "points_zero", "points_negative",
            "extent", "write_paths", "bass_normalized", "lambda"])
    def test_malformed_value(self, tmp_path, capsys, old, new, message):
        shipped = (CONFIGS / "stable_like_d1.cfg").read_text()
        text = shipped.replace(old, new, 1)
        assert text != shipped
        p = write(tmp_path, text)
        assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, old, new, message", [
        ("stable_like_d1", "rtol = 0.05", "rtl = 0.0001",
         "[analysis.moment_identity] unknown key 'rtl'; this section "
         "reads ['rtol', 't']"),
        ("stable_like_d1", "x0 = 0.0", "xo = 0.0",
         "[sim] unknown key 'xo'"),
        ("stable_like_d1", "alpha = 1.0", "alpha = 1.0\nbass_normalised = 1",
         "[component.small] unknown key 'bass_normalised'"),
        ("stable_like_d1", "alpha = 1.0", "alpha = 1.0\nlambda = 2.0",
         "[component.small] unknown key 'lambda'"),
        ("lil_compound_poisson", "coverage = 0.9", "covrage = 0.99",
         "[analysis.lil] unknown key 'covrage'"),
        ("lil_compound_poisson", "coverage = 0.9",
         "coverage = 0.9\ntail_lower_bound = 0.5",
         "[analysis.lil] unknown key 'tail_lower_bound'"),
        ("stable_like_d1", "x0 = 0.0", "x0 = 0.0\nsmall_jump_mode = drop",
         "[sim] unknown key 'small_jump_mode'"),
        ("stable_like_d1", "x0 = 0.0", "x0 = 0.0\nmargin = 2.0",
         "[sim] unknown key 'margin'"),
        ("stable_like_d1", "x0 = 0.0", "x0 = 0.0\nmax_jumps = 100",
         "[sim] unknown key 'max_jumps'"),
    ], ids=["rtol", "x0", "bass_normalized", "lambda", "coverage",
            "tail_lower_bound", "small_jump_mode", "margin", "max_jumps"])
    def test_unread_key(self, tmp_path, capsys, config, old, new, message):
        # a mistyped key would otherwise fall back to its default silently
        shipped = (CONFIGS / f"{config}.cfg").read_text()
        text = shipped.replace(old, new, 1)
        assert text != shipped
        p = write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["analyze", str(p), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(out.rglob("*.*"))

    @pytest.mark.parametrize("config, n_paths", [
        ("stable_like_d1", "n_paths = 2000"),
        ("compound_poisson_d1", "n_paths = 500"),
    ], ids=["stable_like", "compound_poisson"])
    def test_analysis_of_one_path(self, tmp_path, capsys, config, n_paths):
        # one path has no standard error: every z-score would read 0
        text = (CONFIGS / f"{config}.cfg").read_text().replace(
            n_paths, "n_paths = 1")
        p = write(tmp_path, text)
        assert main(["analyze", str(p), "--out", str(tmp_path / "o")]) == 2
        assert ("config error: [analysis.martingale] needs n_paths >= 2, "
                "got 1") in capsys.readouterr().err


# every analysis on a compound-Poisson kernel: 3 proposals a unit of time
# under the dominating rate, so 192 a path
ALL_ANALYSES = """\
[kernel]
dimension = 1
components = atoms

[component.atoms]
family = compound_poisson_atoms
atoms = 1.0: 0.5; 1.0: -0.5

[sim]
t_end = 64.0
epsilon = 0.1
base_seed = 4242
n_paths = 7
x0 = 0.0

[output]
write_paths = true

[analysis.martingale]
t = 64.0

[analysis.qv]
t = 40.0

[analysis.moment_identity]
t = 64.0
rtol = 1.0

[analysis.generator]
function = sin_first
t = 30.0

[analysis.lil]
t_start = 16.0
direction = 1.0
coverage = 0.5
"""


def run_outputs(root):
    """Every file of a run but its manifest, by relative path."""
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*"))
            if f.is_file() and f.name != "manifest.json"}


class TestBlocks:
    # 192 proposals a path for ALL_ANALYSES; GOOD's state-dependent
    # kernel has about 180
    @pytest.mark.parametrize("text, extra, budget, sizes", [
        (ALL_ANALYSES, "", 500, [2, 2, 2, 1]),
        (GOOD, "\n[analysis.qv]\nt = 1.0\n", 2000, [11] * 4 + [6]),
    ], ids=["all_analyses", "state_dependent"])
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_blocks_do_not_change_outputs(self, tmp_path, monkeypatch, capsys,
                                          command, text, extra, budget,
                                          sizes):
        p = write(tmp_path, text + extra)
        blocks = []
        ensemble = cli.ThinningSimulator.ensemble

        def recorded(sim, x0, n_paths, **kw):
            blocks.append(n_paths)
            return ensemble(sim, x0, n_paths, **kw)

        monkeypatch.setattr(cli.ThinningSimulator, "ensemble", recorded)
        runs = []
        for tag, proposals in (("one", cli._BLOCK_PROPOSALS), ("many", budget)):
            monkeypatch.setattr(cli, "_BLOCK_PROPOSALS", proposals)
            blocks.clear()
            out = tmp_path / tag
            code = main([command, str(p), "--out", str(out)])
            runs.append((code, capsys.readouterr(), list(blocks),
                         run_outputs(out / config_hash(text + extra))))
        (code1, std1, blocks1, files1), (code2, std2, blocks2, files2) = runs
        assert blocks1 == [sum(sizes)]
        assert blocks2 == sizes
        assert (code1, std1) == (code2, std2)
        assert files1 == files2
        assert sum(name.startswith("paths/") for name in files1) == sum(sizes)

    def test_a_block_holds_a_path_for_each_worker(self, tmp_path,
                                                  monkeypatch, pool):
        # one worker for each non-empty chunk of each block
        p = write(tmp_path, ALL_ANALYSES)
        monkeypatch.setattr(cli, "_BLOCK_PROPOSALS", 1)
        assert main(["analyze", str(p), "--out", str(tmp_path / "a"),
                     "--jobs", "3"]) == 0
        assert pool == [3, 3, 1]
        pool.clear()
        assert main(["simulate", str(p), "--out", str(tmp_path / "b"),
                     "--jobs", "64"]) == 0
        assert pool == [7]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, pool,
                                             jobs):
        p = write(tmp_path, ALL_ANALYSES)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(p), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert pool == []
        assert not out.exists()

    def test_memory_stays_bounded(self, tmp_path):
        # 8 paths of the shipped LIL kernel at t_end = 1e5, each about 4e5
        # jumps and 6.4 MB of arrays, and each its own block: the peak
        # stays below 3 paths' arrays, where holding the ensemble took 8
        text = (CONFIGS / "lil_compound_poisson.cfg").read_text(
            encoding="utf-8").replace("n_paths = 100", "n_paths = 8")
        assert "t_end = 100000.0" in text
        p = write(tmp_path, text)
        tracemalloc.start()
        try:
            code = main(["analyze", str(p), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 20e6


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_override_out_of_range(self, tmp_path, capsys, seed):
        # checked with the config, before anything is validated or written
        p = write(tmp_path, GOOD)
        out = tmp_path / "o"
        assert main(["validate", str(p), "--out", str(out),
                     "--seed-override", seed]) == 2
        assert capsys.readouterr().err == (
            "config error: --seed-override: base_seed must lie in "
            f"[0, 2^64), got {seed}\n")
        assert not out.exists()

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
