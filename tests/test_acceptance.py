"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 (commutator half), 9 and 10 encode stated expectations that the
implemented constructions provably cannot meet; they are asserted as stated
and fail honestly.  See notes in the repository README ("Known deviations")
for the analysis.
"""

import json
import time

import numpy as np
import pytest

from dickesim import (
    DickeSpace,
    OptimizerConfig,
    QuantumState,
    TargetKind,
    TargetSpec,
    apply_sequence,
    build_sminus,
    build_splus,
    build_sx,
    build_sy,
    build_sz,
    fidelity,
    lie_closure,
    make_target,
    oscillator_counterexample,
    planar_wigner,
    random_restart_search,
    spherical_wigner,
    synthesis_by_powers,
    unflatten_params,
)
from dickesim.algebra import trotter_commutator_error, trotter_sum_error
from dickesim.cli import main as cli_main
from dickesim.wigner import spherical_wigner_values
from dickesim.core import _hermitian_exp
from oracle import commutator


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_operator_identities():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        space = DickeSpace(n)
        sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            worst = max(worst, np.max(np.abs(commutator(a, b) - 1j * c)))
        j = n / 2
        casimir = sx @ sx + sy @ sy + sz @ sz
        worst = max(worst, np.max(np.abs(casimir - j * (j + 1) * np.eye(n + 1))))
        m = np.arange(n)
        sp, sm = build_splus(space), build_sminus(space)
        worst = max(worst, np.max(np.abs(sp[m + 1, m] - np.sqrt((m + 1.0) * (n - m)))))
        worst = max(worst, np.max(np.abs(sm[m, m + 1] - np.sqrt((m + 1.0) * (n - m)))))
        worst = max(worst, np.max(np.abs(np.diag(sz) - (np.arange(n + 1) - n / 2))))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-12 and elapsed < 5.0,
           f"operator identities N=1..12, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_universality_closure():
    started = time.perf_counter()
    ok = True
    details = []
    for n in range(2, 7):
        space = DickeSpace(n)
        sx, sy = build_sx(space), build_sy(space)
        rep = lie_closure([sx, sy, sx @ sx, sy @ sy])
        ok &= rep.universal and rep.traceless_dimension == (n + 1) ** 2 - 1
        details.append(f"N={n}:{rep.traceless_dimension}/{(n + 1) ** 2 - 1}")
    space = DickeSpace(4)
    rot = lie_closure([build_sx(space), build_sy(space)])
    ok &= rot.traceless_dimension == 3 and not rot.universal

    # independent oracle at N=2: span dimension via numpy rank of stacked
    # vectorized iterated commutators
    space = DickeSpace(2)
    gens = [build_sx(space), build_sy(space)]
    gens += [g @ g for g in gens]
    basis = list(gens)
    for _ in range(4):
        new = []
        for a in basis:
            for b in basis:
                new.append(1j * (a @ b - b @ a))
        basis = basis + new
        if len(basis) > 400:
            break
    stack = np.array([(m - np.trace(m) / 3 * np.eye(3)).reshape(-1) for m in basis])
    rank = np.linalg.matrix_rank(np.vstack([stack.real, stack.imag]).T, tol=1e-8)
    ok &= rank == 8
    elapsed = time.perf_counter() - started
    report(2, ok and elapsed < 30.0,
           f"closure {' '.join(details)}, rotations-only=3, oracle rank {rank}, {elapsed:.2f}s")


def test_criterion_03_oscillator_counterexample():
    started = time.perf_counter()
    dims = []
    for cutoff in (8, 16, 32):
        rep = oscillator_counterexample(cutoff)
        dims.append(rep.reached_dimension)
    elapsed = time.perf_counter() - started
    ok = all(d <= 6 for d in dims) and len(set(dims)) == 1 and elapsed < 10.0
    report(3, ok, f"Gaussian algebra dimensions {dims} at cutoffs 8/16/32, {elapsed:.2f}s")


def test_criterion_04_trotter_scaling():
    started = time.perf_counter()
    space = DickeSpace(4)
    sx, sy = build_sx(space), build_sy(space)
    a, b = sx @ sx, sy
    ks = np.array([8, 16, 32, 64])
    sum_errors = [trotter_sum_error(a, b, 1.0, k) for k in ks]
    comm_errors = [trotter_commutator_error(a, b, 1.0, k) for k in ks]
    sum_slope = float(np.polyfit(np.log(ks), np.log(sum_errors), 1)[0])
    comm_slope = float(np.polyfit(np.log(ks), np.log(comm_errors), 1)[0])
    elapsed = time.perf_counter() - started
    ok = (-1.3 <= sum_slope <= -0.7) and (-1.3 <= comm_slope <= -0.7) and elapsed < 5.0
    report(4, ok,
           f"sum slope {sum_slope:.3f}, commutator slope {comm_slope:.3f} "
           f"(commutator group product is O(1/sqrt(k)); see README), {elapsed:.2f}s")


def test_criterion_05_cat2_replay(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "rec.json"
    code = cli_main(["replay", "--sequence", "cat2", "--sweep-conventions",
                     "--out", str(out)])
    rec = json.loads(out.read_text())
    best = rec["outputs"]["fidelity"]
    elapsed = time.perf_counter() - started
    if best < 0.90:
        print("sweep report:", json.dumps(rec["outputs"]["sweep"], indent=2))
    report(5, code == 0 and best >= 0.90 and elapsed < 2.0,
           f"2-cat sweep best fidelity {best:.4f} (reported 0.97), {elapsed:.2f}s")


def test_criterion_06_replay_reports(tmp_path):
    started = time.perf_counter()
    fidelities = {}
    for name in ("cat2", "cat4", "gkp-square", "gkp-hexagonal"):
        out = tmp_path / f"{name}.json"
        code = cli_main(["replay", "--sequence", name, "--sweep-conventions",
                         "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        fidelities[name] = rec["outputs"]["fidelity"]
    elapsed = time.perf_counter() - started
    square = fidelities["gkp-square"]
    detail = (" ".join(f"{k}={v:.4f}" for k, v in fidelities.items())
              + f"; square-GKP best {square:.4f} vs reported 0.9837")
    # best-effort by construction: completion and reporting are the deliverable
    report(6, len(fidelities) == 4, detail + f", {elapsed:.2f}s")


def test_criterion_07_optimizer_recovery():
    started = time.perf_counter()
    space = DickeSpace(4)
    config = OptimizerConfig(restarts=50, freeze_rounds=1,
                             nm_max_iters=1500, nm_tolerance=1e-8, seed=314,
                             target_infidelity=0.01)
    gen_rng = np.random.default_rng(1234)
    successes = 0
    fids = []
    for _ in range(10):
        true_params = gen_rng.uniform(-np.pi, np.pi, 18)
        target = apply_sequence(unflatten_params(space, 3, true_params),
                                QuantumState.ground(space))
        run = random_restart_search(space, target, config, n_steps=3)
        fids.append(run.best_fidelity)
        successes += run.best_fidelity >= 0.99
    elapsed = time.perf_counter() - started
    report(7, successes >= 8 and elapsed < 120.0,
           f"{successes}/10 targets recovered at >= 0.99 "
           f"(min {min(fids):.4f}), {elapsed:.1f}s")


def test_criterion_08_wigner_checks():
    started = time.perf_counter()
    ok = True
    # normalization for 20 random states at N = 10
    worst_norm = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=11) + 1j * rng.normal(size=11)
        st = QuantumState.from_amplitudes(DickeSpace(10), vec, normalize=True)
        grid = spherical_wigner(st, n_theta=16, n_phi=24)
        worst_norm = max(worst_norm, abs(grid.integral() - 1.0))
    ok &= worst_norm < 1e-6

    # rotation covariance via the SO(3) image of the rotation operator
    space = DickeSpace(8)
    spins = [b(space) for b in (build_sx, build_sy, build_sz)]
    rng = np.random.default_rng(99)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    gen = sum(a * s for a, s in zip(axis, spins))
    u = _hermitian_exp(gen, 1j * 0.9)
    norm = np.trace(spins[0] @ spins[0]).real
    m_rot = np.array([[np.trace(u.conj().T @ spins[i] @ u @ spins[j]).real / norm
                       for j in range(3)] for i in range(3)])
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = QuantumState.from_amplitudes(space, vec, normalize=True)
    rotated = QuantumState(space, amplitudes=u @ psi.amplitudes)
    thetas = rng.uniform(0.05, np.pi - 0.05, 25)
    phis = rng.uniform(0, 2 * np.pi, 25)
    pts = np.stack([np.sin(thetas) * np.cos(phis),
                    np.sin(thetas) * np.sin(phis), np.cos(thetas)])
    back = m_rot.T @ pts
    cov_err = np.max(np.abs(
        spherical_wigner_values(rotated, thetas, phis)
        - spherical_wigner_values(psi, np.arccos(np.clip(back[2], -1, 1)),
                                  np.arctan2(back[1], back[0]))))
    ok &= cov_err < 1e-6

    # planar 2-cat vs the closed-form two-coherent-state oracle
    st = make_target(TargetSpec(TargetKind.CAT2, gamma=3.0), DickeSpace(40))
    grid = planar_wigner(st, x_max=7.5, p_max=7.5, resolution=101)
    X, P = grid.xs[:, None], grid.ps[None, :]
    alpha = (X + 1j * P) / np.sqrt(2)
    legs = [(1.0, 3.0), (-1j, -3.0)]
    num = np.zeros_like(alpha)
    norm_c = 0.0
    for ai, gi in legs:
        for aj, gj in legs:
            ov = np.exp(-0.5 * abs(gi) ** 2 - 0.5 * abs(gj) ** 2 + np.conj(gj) * gi)
            num = num + ai * np.conj(aj) * (1 / np.pi) * np.exp(
                -2 * np.conj(alpha - gj) * (alpha - gi)) * ov
            norm_c = norm_c + ai * np.conj(aj) * ov
    cat_err = np.max(np.abs(grid.values - (num / norm_c).real))
    ok &= cat_err < 1e-6
    elapsed = time.perf_counter() - started
    report(8, ok and elapsed < 20.0,
           f"normalization {worst_norm:.1e}, covariance {cov_err:.1e}, "
           f"planar-cat {cat_err:.1e}, {elapsed:.1f}s")


def test_criterion_09_size_dependence(tmp_path):
    started = time.perf_counter()
    stds = {}
    for name in ("cat2", "gkp-square"):
        out = tmp_path / f"{name}.json"
        code = cli_main(["size-sweep", "--sequence", name,
                         "--n-list", "30,35,40,45,50", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        fids = [row["fidelity"] for row in rec["outputs"]["table"]]
        stds[name] = float(np.std(fids))
        print(f"{name} sweep fidelities:",
              " ".join(f"{f:.4f}" for f in fids), f"std {stds[name]:.4f}")
    elapsed = time.perf_counter() - started
    report(9, stds["cat2"] < stds["gkp-square"] and elapsed < 10.0,
           f"fidelity std cat2 {stds['cat2']:.4f} vs gkp-square "
           f"{stds['gkp-square']:.4f} (near-pi/2 squeezing rotates the cat "
           f"by pi*dJ per size step; see README), {elapsed:.1f}s")


def test_criterion_10_synthesis_trend():
    started = time.perf_counter()
    space = DickeSpace(3)
    all_decreasing = True
    sample = None
    for seed in range(10):
        rng = np.random.default_rng(seed)
        while True:
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            if abs(vec[0]) >= 0.3:
                break
        target = QuantumState.from_amplitudes(space, vec)
        errs = [synthesis_by_powers(space, target, a)[1]
                for a in (0.1, 0.05, 0.02, 0.01)]
        if sample is None:
            sample = errs
        all_decreasing &= all(b < a for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - started
    report(10, all_decreasing and elapsed < 10.0,
           f"strict decrease over alpha_scale: {all_decreasing} "
           f"(sample errors {['%.6f' % e for e in sample]}; the dial is "
           f"provably inert, (e^G)^M = e^(MG); see README), {elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    started = time.perf_counter()
    pairs = []
    for tag in ("a", "b"):
        rec = tmp_path / f"replay-{tag}.json"
        assert cli_main(["replay", "--sequence", "cat2", "--out", str(rec)]) == 0
        pairs.append(rec.read_bytes())
    replay_ok = pairs[0] == pairs[1]

    amps = tmp_path / "amps.json"
    amps.write_text(json.dumps([[0.0, 0.0]] * 3 + [[1.0, 0.0]]))
    pairs = []
    seq = tmp_path / "opt-seq.json"
    for tag in ("a", "b"):
        rec = tmp_path / f"opt-{tag}.json"
        assert cli_main(["optimize", "--n", "3", "--target", "custom",
                         "--custom-amplitudes", str(amps), "--steps", "2",
                         "--restarts", "3", "--freeze-rounds", "1",
                         "--nm-iters", "300", "--seed", "2718",
                         "--seq-out", str(seq), "--out", str(rec)]) == 0
        pairs.append(rec.read_bytes())
    optimize_ok = pairs[0] == pairs[1]
    elapsed = time.perf_counter() - started
    report(11, replay_ok and optimize_ok,
           f"byte-identical records: replay {replay_ok}, optimize {optimize_ok}, "
           f"{elapsed:.1f}s")
