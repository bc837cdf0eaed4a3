"""Acceptance gate: nine criteria, one pass/fail line each.

Every test prints ``[criterion N] PASS|FAIL`` with a short detail string
(visible under ``pytest -s`` or on failure) and asserts both the stated
tolerance and the stated runtime budget.
"""

import json
import math
import time
from importlib import resources
from pathlib import Path as FSPath

import numpy as np
import pytest
from scipy.stats import ks_2samp

from jumplab import coeffs
from jumplab.cli import main
from jumplab.config import load_config
from jumplab.estimators import (
    generator_martingale_test,
    lil_statistics,
    qv_comparison,
    second_moment_identity,
)
from jumplab.kernels import (
    BigJumpPowerLaw,
    CompoundPoissonAtoms,
    ConeRestriction,
    KernelSpec,
    StableLikeSmall,
    bass_constant,
)
from jumplab.simulator import (
    SimConfig,
    ThinningSimulator,
    sample_compound_poisson_direct,
    simulate_ensemble,
    state_at,
)
from jumplab.validators import (
    FAIL,
    check_ellipticity,
    check_second_moment,
    check_zero_drift,
    default_grid,
    run_all,
)

CONFIGS = FSPath(__file__).resolve().parent.parent / "configs"

ATOMS = KernelSpec(1, (CompoundPoissonAtoms(
    ((1.0, (0.5,)), (1.0, (-0.5,)))
),))
STABLE = KernelSpec(1, (
    StableLikeSmall(coeffs.constant(1.0), coeffs.constant(1.0)),
))


class _PositiveHalf:
    symmetric = False

    def __call__(self, z):
        return z[0] > 0


def report(n, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[criterion {n}] {verdict} — {name}: {detail} "
          f"({elapsed:.1f}s / {budget:.0f}s budget)")
    assert ok, f"criterion {n} ({name}): {detail}"
    assert elapsed <= budget, \
        f"criterion {n} ({name}) took {elapsed:.1f}s > {budget:.0f}s"


@pytest.fixture(scope="module")
def atoms_100k():
    """Shared 1e5-path compound-Poisson ensemble (criteria 3 and 4)."""
    return simulate_ensemble(
        ATOMS, (0.0,),
        SimConfig(t_end=1.0, epsilon=0.1, base_seed=100_000),
        100_000,
    )


def test_criterion_1_moment_oracles():
    t0 = time.perf_counter()
    checks = []

    # isotropic power laws: closed-form antiderivatives
    got = STABLE.second_moment((0.0,)).value
    checks.append(("stable second moment", got, 2.0))
    big = KernelSpec(1, (BigJumpPowerLaw(coeffs.constant(1.0),
                                         coeffs.constant(3.0)),))
    checks.append(("power-law second moment",
                   big.second_moment((0.0,)).value, 2.0))
    checks.append(("bass constant d=1", bass_constant(1.0, 1),
                   1.0 / math.pi))
    checks.append(("bass constant d=3", bass_constant(1.0, 3),
                   1.0 / math.pi**2))

    # one-sided tail drift: int_1^inf z * z^{-4} dz = 1/2
    cone = KernelSpec(1, (ConeRestriction(
        BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
        _PositiveHalf(), symmetric=False,
    ),))
    vec, _ = cone.drift_tail((0.0,), 1.0)
    checks.append(("cone tail drift", float(vec[0]), 0.5))

    # diffusion matrices: atomic sum and isotropic diagonal
    checks.append(("atoms diffusion",
                   float(ATOMS.diffusion_matrix((0.0,)).a[0, 0]), 0.5))
    checks.append(("stable diffusion",
                   float(STABLE.diffusion_matrix((0.0,)).a[0, 0]), 2.0))

    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    report(1, "moment oracles", worst <= 1e-8,
           f"{len(checks)} oracles, worst relative error {worst:.2e}",
           time.perf_counter() - t0, 30.0)


def test_criterion_2_validator_truth_table():
    t0 = time.perf_counter()
    grid = default_grid(1)
    problems = []

    # admissible family: variable-order stable-like part with dominated
    # power-law big jumps -> no fail verdicts
    bump = coeffs.inverse_quadratic_bump(1.0, 0.5)
    good = KernelSpec(1, (
        StableLikeSmall(bump, coeffs.inverse_quadratic_bump(1.0, 0.5)),
        BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
    ))
    if run_all(good, grid).has_fail:
        problems.append("admissible family produced a fail verdict")

    heavy = KernelSpec(1, (BigJumpPowerLaw(coeffs.constant(1.0),
                                           coeffs.constant(1.5)),))
    if check_second_moment(heavy, grid).verdict != FAIL:
        problems.append("divergent tail not flagged")

    cone = KernelSpec(1, (ConeRestriction(
        BigJumpPowerLaw(coeffs.constant(1.0), coeffs.constant(3.0)),
        _PositiveHalf(), symmetric=False,
    ),))
    drift = check_zero_drift(cone, default_grid(1, 5.0, 5))
    if drift.verdict != FAIL or drift.witness is None:
        problems.append("one-sided kernel passed the drift check")
    elif abs(drift.evidence["max_abs_drift"] - 0.5) > 1e-6 * 0.5:
        problems.append("drift witness is not 0.5")

    axis = KernelSpec(2, (CompoundPoissonAtoms(
        ((1.0, (0.5, 0.0)), (1.0, (-0.5, 0.0)))
    ),))
    if check_ellipticity(axis, default_grid(2, 2.0, 5)).verdict != FAIL:
        problems.append("degenerate 2d kernel passed ellipticity")

    report(2, "validator truth table", not problems,
           "; ".join(problems) or "4 rows as expected",
           time.perf_counter() - t0, 60.0)


def test_criterion_3_martingale_gate(atoms_100k):
    t0 = time.perf_counter()
    n = 100_000
    gate = 3.0 * math.sqrt(0.5 / n)
    passes = 0
    worst = 0.0
    for seed in range(100_000, 100_020):
        if seed == atoms_100k.config.base_seed:
            ens = atoms_100k
        else:
            ens = simulate_ensemble(
                ATOMS, (0.0,),
                SimConfig(t_end=1.0, epsilon=0.1, base_seed=seed), n,
            )
        deltas = np.array([
            p.jump_vectors.sum(axis=0) if p.n_jumps else np.zeros(1)
            for p in ens.paths
        ])
        dev = float(np.max(np.abs(deltas.mean(axis=0))))
        worst = max(worst, dev)
        passes += dev <= gate
    report(3, "martingale gate", passes >= 19,
           f"{passes}/20 seeds within {gate:.4f} (worst mean {worst:.4f})",
           time.perf_counter() - t0, 60.0)


def test_criterion_4_second_moment_identity(atoms_100k):
    t0 = time.perf_counter()
    problems = []

    rep = second_moment_identity(atoms_100k, ATOMS, 1.0)
    if abs(rep.rhs[0] - 0.5) > 1e-12:
        problems.append(f"atomic predictable side {rep.rhs[0]} != 0.5")
    if abs(rep.lhs[0] - 0.5) > 3.0 * rep.lhs_se[0]:
        problems.append(
            f"atomic sample moment off by {abs(rep.lhs[0] - 0.5):.4f} "
            f"> 3 SE = {3 * rep.lhs_se[0]:.4f}"
        )

    eps = 0.01  # drops exactly 1% of the variance for alpha = 1
    ens = simulate_ensemble(
        STABLE, (0.0,),
        SimConfig(t_end=1.0, epsilon=eps, base_seed=424), 4000,
    )
    drop = ens.paths[0].dropped_variance_fraction
    if drop > 0.01 + 1e-9:
        problems.append(f"dropped variance fraction {drop:.4f} > 1%")
    rep = second_moment_identity(ens, STABLE, 1.0)
    rel = abs(rep.lhs[0] / (rep.rhs[0] * (1.0 - drop)) - 1.0)
    if rel > 0.05:
        problems.append(f"stable-like relative gap {rel:.4f} > 5%")

    report(4, "second-moment identity", not problems,
           "; ".join(problems) or
           f"atomic exact 0.5; stable-like gap {rel:.4f}",
           time.perf_counter() - t0, 120.0)


def test_criterion_5_qv_identity():
    t0 = time.perf_counter()
    problems = []
    cfg = SimConfig(t_end=1.0, epsilon=0.1, base_seed=55)

    for kernel, label, eps in ((ATOMS, "atomic", 0.1),
                               (STABLE, "stable-like", 0.005)):
        ens = simulate_ensemble(
            kernel, (0.0,),
            SimConfig(t_end=1.0, epsilon=eps, base_seed=55), 3000,
        )
        rep = qv_comparison(ens, kernel, 1.0)
        if not rep.passed:
            problems.append(
                f"{label} realized-predictable gap z = "
                f"{float(np.max(np.abs(rep.z_scores))):.2f}"
            )

    doubled = KernelSpec(1, (CompoundPoissonAtoms(
        ((1.0, (1.0,)), (1.0, (-1.0,)))
    ),))
    r1 = qv_comparison(simulate_ensemble(ATOMS, (0.0,), cfg, 300),
                       ATOMS, 1.0)
    r2 = qv_comparison(simulate_ensemble(doubled, (0.0,), cfg, 300),
                       doubled, 1.0)
    for name, a, b in (
        ("realized", r1.realized_mean[0, 0], r2.realized_mean[0, 0]),
        ("predictable", r1.predictable_mean[0, 0],
         r2.predictable_mean[0, 0]),
    ):
        if abs(b - 4.0 * a) > 1e-12 * max(1.0, abs(b)):
            problems.append(f"doubling atoms did not quadruple {name} QV")

    report(5, "quadratic-variation identity", not problems,
           "; ".join(problems) or "both kernels within 3 SE; scaling exact",
           time.perf_counter() - t0, 120.0)


def test_criterion_6_generator_martingale():
    t0 = time.perf_counter()
    ens = simulate_ensemble(
        ATOMS, (0.0,),
        SimConfig(t_end=1.0, epsilon=0.1, base_seed=66), 10_000,
    )
    problems = []
    const = generator_martingale_test(ens, ATOMS, "constant", 1.0)
    if const.mean != 0.0 or const.z_score != 0.0:
        problems.append("constant test function not exactly zero")
    sin = generator_martingale_test(ens, ATOMS, "sin_first", 1.0)
    if not sin.passed:
        problems.append(f"sin test function z = {sin.z_score:.2f}")
    report(6, "generator martingale", not problems,
           "; ".join(problems) or
           f"constant exact; sin z = {sin.z_score:.2f}",
           time.perf_counter() - t0, 60.0)


def test_criterion_7_thinning_vs_direct():
    t0 = time.perf_counter()
    n = 10_000
    passes = 0
    for seed in range(700, 720):
        ens = simulate_ensemble(
            ATOMS, (0.0,),
            SimConfig(t_end=1.0, epsilon=0.1, base_seed=seed), n,
        )
        thinned = np.array([state_at(p, 1.0)[0] for p in ens.paths])
        direct = np.array([
            state_at(
                sample_compound_poisson_direct(
                    ATOMS, (0.0,), 1.0, seed + 10_000, i
                ), 1.0,
            )[0]
            for i in range(n)
        ])
        passes += ks_2samp(thinned, direct).pvalue >= 0.01
    report(7, "thinning vs direct sampler", passes >= 18,
           f"{passes}/20 seeds accept at level 0.01",
           time.perf_counter() - t0, 120.0)


def test_criterion_8_lil_band():
    t0 = time.perf_counter()
    problems = []

    band = json.loads(
        resources.files("jumplab.data").joinpath("lil_band.json").read_text()
    )
    lo, hi = band["band_lo"], band["band_hi"]

    # unit-variance compound Poisson: rate 4, jumps +-1/2
    unit = KernelSpec(1, (CompoundPoissonAtoms(
        ((2.0, (0.5,)), (2.0, (-0.5,)))
    ),))
    ens = simulate_ensemble(
        unit, (0.0,),
        SimConfig(t_end=1e5, epsilon=0.1, base_seed=20250826), 100,
    )
    checkpoints = [2.0**j for j in range(4, 17)]  # dyadic, all above e^e
    rep = lil_statistics(ens, (1.0,), checkpoints, kernel=unit)
    coverage = float(np.mean(
        (rep.running_max_directional >= lo)
        & (rep.running_max_directional <= hi)
    ))
    if coverage < band["target_coverage"]:
        problems.append(
            f"band coverage {coverage:.2f} < {band['target_coverage']}"
        )

    # state-dependent c(x) in (1, 2]: radial statistic against the
    # certified ellipticity bounds
    c = coeffs.inverse_quadratic_bump(1.0, 1.0)
    varying = KernelSpec(1, (StableLikeSmall(c, coeffs.constant(1.0)),))
    ell = check_ellipticity(varying, default_grid(1))
    lam, big_lam = ell.evidence["lambda_hat"], ell.evidence["Lambda_hat"]
    ens = simulate_ensemble(
        varying, (0.0,),
        SimConfig(t_end=1024.0, epsilon=0.2, base_seed=424242), 48,
    )
    rep = lil_statistics(ens, (1.0,), [2.0**j for j in range(4, 11)],
                         kernel=varying)
    med = float(np.median(rep.running_max_radial))
    r_lo, r_hi = 0.5 * math.sqrt(lam), 1.5 * math.sqrt(big_lam)
    if not r_lo <= med <= r_hi:
        problems.append(
            f"radial running-max median {med:.3f} outside "
            f"[{r_lo:.3f}, {r_hi:.3f}]"
        )

    report(8, "iterated-logarithm band", not problems,
           "; ".join(problems) or
           f"coverage {coverage:.2f}; radial median {med:.2f} in "
           f"[{r_lo:.2f}, {r_hi:.2f}]",
           time.perf_counter() - t0, 600.0)


def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    problems = []
    for cfg_path in sorted(CONFIGS.glob("*.cfg")):
        run_hash = load_config(cfg_path).hash
        outputs = {}
        codes = set()
        for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / cfg_path.stem / tag
            codes.add(main(["analyze", str(cfg_path), "--out", str(out),
                            "--jobs", str(jobs)]))
            run = out / run_hash
            outputs[tag] = {
                str(f.relative_to(run)): f.read_bytes()
                for f in run.rglob("*")
                if f.is_file() and f.name != "manifest.json"
            }
        if len(codes) != 1:
            problems.append(f"{cfg_path.name}: exit codes differ {codes}")
        if not outputs["a"]:
            problems.append(f"{cfg_path.name}: no outputs written")
        if outputs["a"] != outputs["b"]:
            problems.append(f"{cfg_path.name}: reruns differ")
        if outputs["a"] != outputs["c"]:
            problems.append(f"{cfg_path.name}: jobs=8 differs from jobs=1")
    report(9, "pipeline determinism", not problems,
           "; ".join(problems) or
           "5 configs byte-identical across reruns and worker counts",
           time.perf_counter() - t0, 900.0)
