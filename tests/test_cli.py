import argparse
import ast
import gc
import hashlib
import json
import os
import stat
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dickesim
from dickesim import cli, gates, targets, wigner
from dickesim.cli import main
from dickesim.seqfile import SequenceFileError


def run_cli(args):
    return main(args)


def test_replay_identity_sequence_scores_one(tmp_path):
    seq_path = tmp_path / "ident.json"
    seq_path.write_text(json.dumps({
        "format_version": 1,
        "n_emitters": 6,
        "convention": "spin-j",
        "exponent_sign": 1,
        "squeeze_order": "xy",
        "squeeze_composition": "product",
        "rotation_composition": "combined",
        "steps": [],
        "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.0},
        "metadata": {},
    }))
    out = tmp_path / "rec.json"
    code = run_cli(["replay", "--sequence", str(seq_path), "--target", "custom",
                    "--custom-amplitudes", str(_custom_ground(tmp_path, 7)),
                    "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["outputs"]["fidelity"] == pytest.approx(1.0, abs=1e-12)


def _custom_ground(tmp_path, dim):
    path = tmp_path / "amps.json"
    path.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)))
    return path


def test_replay_bundled_cat2_with_sweep(tmp_path):
    out = tmp_path / "rec.json"
    code = run_cli(["replay", "--sequence", "cat2", "--sweep-conventions",
                    "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["outputs"]["fidelity"] >= 0.90
    assert len(rec["outputs"]["sweep"]) == 24
    best = rec["outputs"]["best_conventions"]
    assert best["convention"] == "spin-j"
    assert best["exponent_sign"] == -1
    assert best["squeeze_composition"] == "combined"


def test_replay_record_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run_cli(["replay", "--sequence", "cat2", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_missing_file_exits_2(capsys):
    assert run_cli(["replay", "--sequence", "/nonexistent/q.json"]) == 2


@pytest.mark.parametrize("argv", [
    ["replay", "--sequence", "{dir}"],
    ["replay", "--sequence", "cat2", "--out", "{dir}"],
    ["replay", "--sequence", "cat2", "--target", "custom", "--custom-amplitudes", "{dir}"],
    ["wigner", "--sequence", "cat2", "--per-step", "--out", "{file}"],
], ids=["sequence-dir", "out-dir", "amplitudes-dir", "per-step-out-file"])
def test_path_errors_exit_2(tmp_path, capsys, argv):
    existing = tmp_path / "existing.csv"
    existing.write_text("")
    assert run_cli([a.format(dir=tmp_path, file=existing) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_replay_bad_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "n_emitters": "x"}))
    assert run_cli(["replay", "--sequence", str(bad)]) == 2


def test_replay_truncation_exits_3(tmp_path):
    # sensor GKP target at N=20 decisively does not fit
    assert run_cli(["replay", "--sequence", "cat2", "--n", "20",
                    "--target", "gkp-square"]) == 3


def test_optimize_small_run_and_resume(tmp_path):
    seq_out = tmp_path / "best.json"
    rec_out = tmp_path / "rec.json"
    code = run_cli(["optimize", "--n", "3", "--target", "custom",
                    "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                    "--steps", "2", "--start-steps", "2", "--restarts", "4",
                    "--freeze-rounds", "1", "--nm-iters", "400",
                    "--seed", "17", "--stop-fidelity", "0.999",
                    "--seq-out", str(seq_out), "--out", str(rec_out)])
    assert code == 0
    rec = json.loads(rec_out.read_text())
    assert rec["outputs"]["best_fidelity"] > 0.99
    assert seq_out.exists()
    # checkpoint loads and resumes
    rec2_out = tmp_path / "rec2.json"
    code = run_cli(["optimize", "--n", "3", "--target", "custom",
                    "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                    "--steps", "2", "--restarts", "0", "--seed", "17",
                    "--resume", str(seq_out), "--out", str(rec2_out)])
    assert code == 0
    rec2 = json.loads(rec2_out.read_text())
    assert rec2["outputs"]["best_fidelity"] >= rec["outputs"]["best_fidelity"] - 1e-9
    assert rec["outputs"]["objective_evaluations"] > 4
    assert rec2["outputs"]["objective_evaluations"] == 1  # the incumbent alone


def _custom_top(tmp_path, dim):
    path = tmp_path / "top.json"
    path.write_text(json.dumps([[0.0, 0.0]] * (dim - 1) + [[1.0, 0.0]]))
    return path


def test_resume_grows_to_steps(tmp_path):
    checkpoint = tmp_path / "one.json"
    grown = tmp_path / "two.json"
    rec_out = tmp_path / "rec.json"
    common = ["optimize", "--n", "3", "--target", "coherent", "--gamma", "0.1",
              "--restarts", "0"]
    assert run_cli(common + ["--steps", "1", "--start-steps", "1",
                             "--seq-out", str(checkpoint)]) == 0
    fid = json.loads(checkpoint.read_text())["metadata"]["best_fidelity"]
    assert run_cli(common + ["--steps", "2", "--resume", str(checkpoint),
                             "--seq-out", str(grown), "--out", str(rec_out)]) == 0
    outputs = json.loads(rec_out.read_text())["outputs"]
    assert outputs["n_steps"] == 2
    assert [-1, 2, fid] in outputs["history_tail"]
    assert len(json.loads(grown.read_text())["steps"]) == 2


@pytest.mark.parametrize("flags, named", [
    (["--n", "6"], "n_emitters 3 in the checkpoint, 6 requested"),
    (["--n", "3", "--exponent-sign", "-1"], "exponent_sign 1 in the checkpoint, -1 requested"),
    (["--n", "3", "--convention", "pauli-sum"],
     "convention spin-j in the checkpoint, pauli-sum requested"),
    (["--n", "3", "--squeeze-order", "yx"], "squeeze_order xy in the checkpoint, yx requested"),
])
def test_resume_rejects_another_space_or_convention(tmp_path, capsys, flags, named):
    checkpoint = tmp_path / "n3.json"
    common = ["optimize", "--target", "coherent", "--gamma", "0.1", "--restarts", "0",
              "--steps", "1", "--start-steps", "1"]
    assert run_cli(common + ["--n", "3", "--seq-out", str(checkpoint)]) == 0
    capsys.readouterr()
    rec_out = tmp_path / "rec.json"
    assert run_cli(common + flags + ["--resume", str(checkpoint), "--out", str(rec_out)]) == 2
    assert named in capsys.readouterr().err
    assert not rec_out.exists()


def test_optimize_zero_restarts_emits_identity_record(tmp_path):
    out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "3", "--target", "custom",
                    "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                    "--steps", "2", "--restarts", "0", "--seed", "1",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert all(v == 0.0 for v in rec["outputs"]["best_params"])
    assert rec["outputs"]["best_fidelity"] == pytest.approx(0.0)  # |0> vs |3>


def test_optimize_determinism(tmp_path):
    recs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run_cli(["optimize", "--n", "3", "--target", "custom",
                        "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                        "--steps", "2", "--restarts", "2", "--freeze-rounds", "1",
                        "--nm-iters", "200", "--seed", "33",
                        "--out", str(out)]) == 0
        recs.append(out.read_bytes())
    assert recs[0] == recs[1]


def _reachable_target(tmp_path, n=3, steps=2, seed=7):
    """Amplitudes of a random ``steps``-step sequence applied to |0> at N = ``n``."""
    space = dickesim.DickeSpace(n)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, 5 * steps + 3)
    amps = dickesim.apply_sequence(dickesim.unflatten_params(space, steps, params),
                                   dickesim.QuantumState.ground(space)).amplitudes
    path = tmp_path / "reachable.json"
    path.write_text(json.dumps([[float(a.real), float(a.imag)] for a in amps]))
    return path


def _optimize_outputs(tmp_path, flags):
    out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "3", "--target", "custom", "--steps", "2",
                    "--start-steps", "2", *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())["outputs"]


def test_optimize_without_stop_fidelity_is_pinned(tmp_path):
    # two restarts of two rounds each, every round polished to --nm-tol
    outputs = _optimize_outputs(tmp_path, [
        "--custom-amplitudes", str(_reachable_target(tmp_path)),
        "--restarts", "2", "--nm-iters", "300", "--seed", "33"])
    digest = hashlib.sha256(np.asarray(outputs["best_params"]).tobytes()).hexdigest()
    assert outputs["objective_evaluations"] == 2021
    assert outputs["best_fidelity"] == 0.9999999999939904
    assert digest == "f7d462a92df0adbd9281caf249cbb9708d80e4604e93a734f67842cde1592d34"


def test_optimize_stop_fidelity_ends_the_round(tmp_path):
    outputs = _optimize_outputs(tmp_path, [
        "--custom-amplitudes", str(_reachable_target(tmp_path)),
        "--restarts", "5", "--nm-iters", "1500", "--nm-tol", "1e-8", "--seed", "1",
        "--stop-fidelity", "0.99"])
    # polishing each round to --nm-tol took 1961 calls and reached fidelity 1.0
    assert outputs["objective_evaluations"] == 136
    assert 0.99 <= outputs["best_fidelity"] < 0.999
    # the incumbent, then the first round of restart 0; no second round follows
    assert [row[:2] for row in outputs["history_tail"]] == [[-1, -1], [0, 0]]


def test_optimize_six_steps_moves_every_parameter(tmp_path):
    # 33 parameters, and every Nelder-Mead round moves all of them
    out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "10", "--steps", "6", "--start-steps", "6",
                    "--target", "custom", "--custom-amplitudes",
                    str(_reachable_target(tmp_path, n=10, steps=6, seed=2)),
                    "--restarts", "50", "--nm-iters", "1500", "--nm-tol", "1e-8",
                    "--stop-fidelity", "0.99", "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert outputs["best_fidelity"] >= 0.99
    assert outputs["objective_evaluations"] == 1009


@pytest.mark.parametrize("value", ["-1", "0", "1.5", "nan"])
def test_optimize_stop_fidelity_outside_unit_interval_exits_2(tmp_path, capsys, value):
    rec_out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "3", "--steps", "1", "--target", "coherent",
                    "--gamma", "0.2", "--restarts", "1", "--nm-iters", "20",
                    "--stop-fidelity", value, "--out", str(rec_out)]) == 2
    assert "--stop-fidelity" in capsys.readouterr().err
    assert not rec_out.exists()


def test_optimize_stop_fidelity_one_is_accepted(tmp_path):
    outputs = _optimize_outputs(tmp_path, [
        "--custom-amplitudes", str(_reachable_target(tmp_path)),
        "--restarts", "1", "--freeze-rounds", "1", "--nm-iters", "50",
        "--stop-fidelity", "1.0"])
    assert 0.0 < outputs["best_fidelity"] <= 1.0


def test_resumed_incumbent_meeting_stop_fidelity_runs_no_restart(tmp_path):
    top = str(_custom_top(tmp_path, 4))
    checkpoint = tmp_path / "best.json"
    _optimize_outputs(tmp_path, ["--custom-amplitudes", top, "--restarts", "1",
                                 "--freeze-rounds", "1", "--nm-iters", "400", "--seed", "17",
                                 "--seq-out", str(checkpoint)])
    assert json.loads(checkpoint.read_text())["metadata"]["best_fidelity"] > 0.9999
    outputs = _optimize_outputs(tmp_path, ["--custom-amplitudes", top, "--restarts", "3",
                                           "--seed", "17", "--stop-fidelity", "0.99",
                                           "--resume", str(checkpoint)])
    assert outputs["objective_evaluations"] == 1
    assert outputs["best_fidelity"] > 0.9999


def test_wigner_per_step_writes_one_file_per_step(tmp_path):
    outdir = tmp_path / "grids"
    code = run_cli(["wigner", "--sequence", "gkp-square", "--per-step",
                    "--surface", "sphere", "--n-theta", "24", "--n-phi", "24",
                    "--out", str(outdir)])
    assert code == 0
    files = sorted(os.listdir(outdir))
    assert len(files) == 12  # 11 steps plus the final rotation
    assert "final.csv" in files
    first = (outdir / "step01.csv").read_text().splitlines()
    assert first[0] == "theta,phi,w"


def test_wigner_plane_target_labeled(tmp_path):
    out = tmp_path / "plane.csv"
    rec_out = tmp_path / "rec.json"
    code = run_cli(["wigner", "--target", "cat2", "--gamma", "3", "--n", "40",
                    "--surface", "plane", "--resolution", "41",
                    "--x-max", "7", "--p-max", "7", "--out", str(out),
                    "--record", str(rec_out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,p,w"
    rec = json.loads(rec_out.read_text())
    assert rec["outputs"]["approximation"] == "dicke-to-fock-identification"
    assert rec["outputs"]["files"][0]["approximation"] == "dicke-to-fock-identification"


def _identity_sequence_file(tmp_path, n_emitters):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps({
        "format_version": 1, "n_emitters": n_emitters, "convention": "spin-j",
        "exponent_sign": 1, "squeeze_order": "xy",
        "squeeze_composition": "product", "rotation_composition": "combined",
        "steps": [], "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.0},
        "metadata": {},
    }))
    return path


def test_wigner_empty_sequence_sphere_south_pole(tmp_path):
    seq_path = _identity_sequence_file(tmp_path, 8)
    out = tmp_path / "g.csv"
    assert run_cli(["wigner", "--sequence", str(seq_path), "--surface", "sphere",
                    "--n-theta", "30", "--n-phi", "16", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    peak = rows[np.argmax(rows[:, 2])]
    assert peak[0] > np.pi * 0.9  # south pole under the m - N/2 convention


def test_wigner_sequence_keeps_file_emitter_count(tmp_path):
    seq_path = _identity_sequence_file(tmp_path, 8)
    counts = {}
    for n_flag in ([], ["--n", "5"]):
        rec = tmp_path / "rec.json"
        assert run_cli(["wigner", "--sequence", str(seq_path), *n_flag,
                        "--n-theta", "8", "--n-phi", "8", "--out", str(tmp_path / "g.csv"),
                        "--record", str(rec)]) == 0
        counts[tuple(n_flag)] = json.loads(rec.read_text())["inputs"]["n_emitters"]
    assert counts == {(): 8, ("--n", "5"): 5}
    rec = tmp_path / "target.json"
    assert run_cli(["wigner", "--target", "coherent", "--gamma", "0.5",
                    "--n-theta", "8", "--n-phi", "8", "--out", str(tmp_path / "t.csv"),
                    "--record", str(rec)]) == 0
    assert json.loads(rec.read_text())["inputs"]["n_emitters"] == 40


def test_closure_command(tmp_path):
    out = tmp_path / "rec.json"
    assert run_cli(["closure", "--set", "squeezing-rotations", "--n", "4",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["outputs"]["universal"] is True
    assert rec["outputs"]["traceless_dimension"] == 24

    assert run_cli(["closure", "--set", "rotations-only", "--n", "4",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["outputs"]["traceless_dimension"] == 3
    assert rec["outputs"]["universal"] is False

    assert run_cli(["closure", "--set", "oscillator", "--cutoff", "12",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["outputs"]["reached_dimension"] == 6


def test_closure_records_its_margin_and_certificate(tmp_path, capsys, monkeypatch):
    # the span closure (oscillator) prints and records its margin over
    # rank_tol, the rank search (the Dicke sets) its exact certificate
    out = tmp_path / "rec.json"
    assert run_cli(["closure", "--set", "oscillator", "--cutoff", "12", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "closure: traceless 5/143 (reached 6, artifacts 23) universal=False, "
        "smallest admitted residual 1.371e+07 x rank_tol")
    keys = {"generator_count", "reached_dimension", "traceless_dimension", "target_dimension",
            "iterations", "universal", "artifact_count"}
    outputs = json.loads(out.read_text())["outputs"]
    assert set(outputs) == keys | {"rank_tol_margin"}
    assert f"{outputs['rank_tol_margin']:.4g}" == "1.371e+07"
    assert run_cli(["closure", "--set", "squeezing-rotations", "--n", "4",
                    "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "closure: traceless 24/24 (reached 25, artifacts 0) universal=True, "
        "rank certificate: 4 of 4 multipole ranks reached, smallest missing none")
    outputs = json.loads(out.read_text())["outputs"]
    assert set(outputs) == keys | {"ranks", "missing_rank"}
    assert outputs["ranks"] == [1, 2, 3, 4] and outputs["missing_rank"] is None
    # a span that admits nothing has an infinite margin, recorded as null
    monkeypatch.setattr(cli, "oscillator_counterexample",
                        lambda cutoff, rank_tol: dickesim.lie_closure([np.zeros((2, 2))]))
    assert run_cli(["closure", "--set", "oscillator", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outputs"]["rank_tol_margin"] is None


@pytest.mark.parametrize("rank_tol", ["-1", "0", "1", "nan"])
def test_closure_rejects_rank_tol_outside_unit_interval(tmp_path, capsys, rank_tol):
    assert run_cli(["closure", "--set", "squeezing-rotations", "--n", "4",
                    "--rank-tol", rank_tol, "--out", str(tmp_path / "rec.json")]) == 2
    assert "rank_tol" in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


@pytest.mark.parametrize("rank_tol", ["1e-300", "1e-16", "7e-15"])
def test_closure_rejects_rank_tol_below_its_floor(tmp_path, capsys, rank_tol):
    # below 32 eps the span closure admits roundoff as directions: at
    # rank_tol 1e-16 the oscillator set reads 99/143 with 488 artifacts
    out = tmp_path / "rec.json"
    assert run_cli(["closure", "--set", "oscillator", "--rank-tol", rank_tol,
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --rank-tol ") and "32 eps" in err[0], err
    assert not out.exists()
    for accepted in ("1e-14", "1e-8"):
        assert run_cli(["closure", "--set", "oscillator", "--rank-tol", accepted,
                        "--out", str(out)]) == 0
        outputs = json.loads(out.read_text())["outputs"]
        assert (outputs["traceless_dimension"], outputs["artifact_count"]) == (5, 23), accepted


def test_trotter_check_command(tmp_path):
    out = tmp_path / "rec.json"
    assert run_cli(["trotter-check", "--n", "4", "--t", "1.0",
                    "--k-list", "8,16,32,64", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert -1.3 <= rec["outputs"]["sum_slope"] <= -0.7
    assert len(rec["outputs"]["sum_errors"]) == 4


@pytest.mark.parametrize("command", [["closure", "--set", "squeezing-rotations"],
                                     ["trotter-check"]])
def test_algebra_commands_take_no_convention(tmp_path, capsys, command):
    # their generators are spin-j operators: the rank search reads no matrix
    # and lie_closure normalizes its generators, and
    # the trotter errors are defined for S_x^2 and S_y in J units
    out = tmp_path / "rec.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(command + ["--convention", "pauli-sum", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --convention" in capsys.readouterr().err
    assert not out.exists()


def test_size_sweep_single_n_matches_replay(tmp_path):
    sweep_out = tmp_path / "sweep.json"
    replay_out = tmp_path / "replay.json"
    assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "40",
                    "--out", str(sweep_out)]) == 0
    assert run_cli(["replay", "--sequence", "cat2", "--out", str(replay_out)]) == 0
    sweep = json.loads(sweep_out.read_text())
    replay = json.loads(replay_out.read_text())
    assert sweep["outputs"]["table"][0]["fidelity"] == replay["outputs"]["fidelity"]

    # every command that loads a sequence honours --n and the convention flags
    flags = ["--exponent-sign", "1", "--squeeze-composition", "product"]
    wigner_out = tmp_path / "wigner.json"
    assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "30",
                    "--out", str(sweep_out), *flags]) == 0
    assert run_cli(["replay", "--sequence", "cat2", "--n", "30",
                    "--out", str(replay_out), *flags]) == 0
    assert run_cli(["wigner", "--sequence", "cat2", "--n", "30", "--n-theta", "8",
                    "--n-phi", "8", "--out", str(tmp_path / "w.csv"),
                    "--record", str(wigner_out), *flags]) == 0
    sweep, replay, wigner = (json.loads(p.read_text())
                             for p in (sweep_out, replay_out, wigner_out))
    assert sweep["outputs"]["table"][0]["fidelity"] == replay["outputs"]["fidelity"]
    assert replay["inputs"]["n_emitters"] == wigner["inputs"]["n_emitters"] == 30
    for rec in (sweep, replay, wigner):
        assert rec["inputs"]["conventions"]["exponent_sign"] == 1
        assert rec["inputs"]["conventions"]["squeeze_composition"] == "product"


def test_size_sweep_keeps_at_most_two_spaces(tmp_path):
    # a space's bases, mirror tables, plans and the buffers the plans reuse
    # are cached together and released together, by reference counting
    # alone (the cycle collector off): size-sweep holds one size at a time,
    # other callers two spaces
    space = dickesim.DickeSpace(40)
    run = gates._plan(space, (dickesim.GateConventions(squeeze_composition="combined"),), 1)
    run(np.zeros(8), np.eye(41, 1, dtype=complex), False)  # makes the mirror tables, buffers
    bases = gates._propagation_bases(space)
    buffers = list(bases.store["buffers"].values())  # the phase tables, the eigenvectors
    assert {b.shape for b in buffers} >= {(2, 3, 2, 21), (2, 3, 41), (1, 2, 21, 21)}
    held = [weakref.ref(x) for x in (bases.vx, bases.store["mirror"][3], run, *buffers)]
    del run, bases, buffers
    gc.disable()
    try:  # read before the collector is back: it would free a young cycle at once
        assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "41,42,43,44,45",
                        "--out", str(tmp_path / "sweep.json")]) == 0
        released = [ref() is None for ref in held]
    finally:
        gc.enable()
    assert gates._propagation_bases.cache_info().currsize == 1
    assert released == [True] * len(held)  # vx, tables, plan, buffers
    for n in range(4, 9):
        gates._propagation_bases(dickesim.DickeSpace(n))
    assert gates._propagation_bases.cache_info().currsize == 2


def test_size_sweep_reports_per_n_errors(tmp_path):
    out = tmp_path / "rec.json"
    # strict truncation policing: the sensor target fits at N=50 but not N=20
    assert run_cli(["size-sweep", "--sequence", "gkp-square",
                    "--target", "gkp-square",
                    "--n-list", "20,50", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert "error" in rec["outputs"]["table"][0]
    assert "fidelity" in rec["outputs"]["table"][1]


@pytest.mark.parametrize("kind, name", [("coherent", "coherent state"), ("cat2", "2-cat"),
                                        ("cat4", "4-cat")])
def test_allow_truncation_holds_for_coherent_leg_targets(tmp_path, capsys, kind, name):
    out = tmp_path / "rec.json"
    target = ["--target", kind, "--gamma", "3", "--allow-truncation", "--out", str(out)]
    with pytest.warns(targets.TruncationWarning, match=f"^{name} gamma="):
        assert run_cli(["replay", "--sequence", "cat2", "--n", "10", *target]) == 0
    assert 0 <= json.loads(out.read_text())["outputs"]["fidelity"] <= 1
    with pytest.warns(targets.TruncationWarning):
        assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "10,40", *target]) == 0
    rows = json.loads(out.read_text())["outputs"]["table"]
    assert [sorted(row) for row in rows] == [["fidelity", "n_emitters"]] * 2
    # at gamma = 40 every amplitude kept at N = 4 underflows
    capsys.readouterr()
    with pytest.warns(targets.TruncationWarning):
        assert run_cli(["replay", "--sequence", "cat2", "--n", "4", "--target", kind,
                        "--gamma", "40", "--allow-truncation"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical failure: {name} gamma=(40+0j) leaves no amplitude at or "
                   "below |4> that float64 can represent"]


def test_size_sweep_exits_2_on_target_errors_at_every_n(tmp_path, capsys):
    amps, out = tmp_path / "amps.json", tmp_path / "rec.json"
    amps.write_text("[]")
    target = ["--target", "custom", "--custom-amplitudes", str(amps), "--out", str(out)]
    assert run_cli(["replay", "--sequence", "cat2", "--n", "4", *target]) == 2
    assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "4,6", *target]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: cannot normalize the zero vector"] * 2
    assert not out.exists()
    # a length that fits one N and not another is still one row per N
    amps.write_text("[1, 0, 0, 0, 0]")
    assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", "4,6", *target]) == 0
    rows = json.loads(out.read_text())["outputs"]["table"]
    assert "fidelity" in rows[0] and "error" in rows[1]


@pytest.mark.parametrize("command", [
    ["replay", "--sequence", "gkp-square", "--target", "gkp-square", "--squeezing-db", "nan"],
    ["replay", "--sequence", "cat2", "--target", "cat4", "--phi", "nan"],
    ["replay", "--sequence", "cat2", "--target", "cat2", "--gamma", "nan"],
    ["replay", "--sequence", "cat2", "--target", "custom", "--custom-amplitudes", "NAN_FILE"],
    ["size-sweep", "--sequence", "cat2", "--n-list", "4,6", "--target", "cat4", "--phi", "nan"],
])
def test_non_finite_target_parameters_exit_2(tmp_path, capsys, command):
    amps, out = tmp_path / "amps.json", tmp_path / "rec.json"
    amps.write_text("[1, NaN]")
    command = [str(amps) if arg == "NAN_FILE" else arg for arg in command]
    assert run_cli([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]
    assert not out.exists()


def test_malformed_custom_amplitudes_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for raw in ([1, [0.5]], [1, "0.5"], [[1, 0, 0]], [True], {"a": 1}, None):
        path.write_text(json.dumps(raw))
        assert run_cli(["replay", "--sequence", "cat2", "--n", "4", "--target", "custom",
                        "--custom-amplitudes", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "custom amplitude 1" in err[0]
    assert err[-1] == "error: custom amplitudes must be a JSON list"  # also for null


def test_plane_resolution_below_two_exits_2(tmp_path):
    assert run_cli(["wigner", "--target", "cat2", "--gamma", "1", "--n", "10",
                    "--surface", "plane", "--resolution", "1",
                    "--out", str(tmp_path / "p.csv")]) == 2


@pytest.mark.parametrize("flag", ["--x-max=nan", "--x-max=inf", "--p-max=nan", "--p-max=-inf"])
def test_plane_non_finite_window_exits_2(tmp_path, capsys, flag):
    out, record = tmp_path / "p.csv", tmp_path / "rec.json"
    assert run_cli(["wigner", "--target", "cat2", "--gamma", "1", "--n", "10",
                    "--surface", "plane", "--resolution", "11", flag,
                    "--out", str(out), "--record", str(record)]) == 2
    assert "planar window must be finite" in capsys.readouterr().err
    assert not out.exists() and not record.exists()


def test_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(cli, "planar_wigner", too_large)
    assert run_cli(["wigner", "--target", "cat2", "--gamma", "1", "--n", "10",
                    "--surface", "plane", "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 74.5 TiB for an array\n"


def _overflowing_squeeze_file(tmp_path, composition, theta=0.3, strength=1e308):
    path = tmp_path / f"{composition}.json"
    path.write_text(json.dumps({
        "format_version": 1, "n_emitters": 6, "convention": "spin-j",
        "exponent_sign": 1, "squeeze_order": "xy",
        "squeeze_composition": composition, "rotation_composition": "combined",
        "steps": [{"axis": [1.0, 0.0, 0.0], "theta": theta, "alpha": strength,
                   "beta": strength}],
        "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.0},
        "metadata": {"target": {"kind": "coherent", "gamma": [0.5, 0.0]}},
    }))
    return str(path)


@pytest.mark.parametrize("command", [["replay"], ["replay", "--sweep-conventions"],
                                     ["wigner", "--n-theta", "8", "--n-phi", "8"]])
def test_overflowing_combined_squeeze_exits_3(tmp_path, capsys, command):
    seq = _overflowing_squeeze_file(tmp_path, "combined")
    assert run_cli(command + ["--sequence", seq, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: squeeze strengths [1e+308, 1e+308] of step 1")


def test_overflowing_product_squeeze_reports_plain_nan(tmp_path, capsys):
    # overflow is reported, not warned: pytest makes a RuntimeWarning an error
    seq = _overflowing_squeeze_file(tmp_path, "product")
    assert run_cli(["replay", "--sequence", seq, "--out", str(tmp_path / "out")]) == 3
    assert "norm drifted to nan during propagation" in capsys.readouterr().err


@pytest.mark.parametrize("composition", ["product", "combined"])
def test_overflowing_combined_rotation_reports_plain_nan(tmp_path, capsys, composition):
    seq = _overflowing_squeeze_file(tmp_path, composition, theta=1e308, strength=0.1)
    assert run_cli(["replay", "--sequence", seq, "--out", str(tmp_path / "out")]) == 3
    assert "norm drifted to nan during propagation" in capsys.readouterr().err


@pytest.mark.parametrize("composition", ["product", "combined"])
def test_resume_from_overflowing_checkpoint_exits_3(tmp_path, capsys, composition):
    # the incumbent door silences overflow, so no RuntimeWarning escapes
    checkpoint = _overflowing_squeeze_file(tmp_path, composition)
    rec_out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "6", "--steps", "1", "--target", "coherent",
                    "--gamma", "0.5", "--squeeze-composition", composition,
                    "--restarts", "1", "--resume", checkpoint, "--out", str(rec_out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not rec_out.exists()


@pytest.mark.parametrize("flags", [["--n", "4", "--t", "0"], ["--n", "4", "--t", "-0.0"],
                                   ["--n", "1"]])
def test_trotter_check_refuses_exact_cases(tmp_path, capsys, flags):
    # at t = 0, or at N = 1 where S_x^2 = I/4, both formulas are exact and
    # their errors are roundoff, so a fitted slope would mean nothing
    out = tmp_path / "rec.json"
    assert run_cli(["trotter-check"] + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: both product formulas are exact") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "3", "--t", "1e308"], ["--n", "3", "--t=-1e308"],
                                   ["--n", "3", "--t", "inf"], ["--n", "3", "--t", "1e-300"],
                                   ["--n", "40", "--t", "1e-300"],
                                   ["--n", "3", "--t", "1e-300", "--k-list", "1024,2048"],
                                   ["--n", "4", "--t", "-1"]])
def test_trotter_check_refuses_t_out_of_range(tmp_path, capsys, flags):
    # an overflowing phase used to write NaN into the record, and a tiny t
    # fitted slopes to roundoff
    out = tmp_path / "rec.json"
    assert run_cli(["trotter-check"] + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --t ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("k_list", ["8", "8,8"])
def test_trotter_check_needs_two_distinct_k(tmp_path, k_list):
    assert run_cli(["trotter-check", "--n", "4", "--k-list", k_list,
                    "--out", str(tmp_path / "rec.json")]) == 2
    assert not (tmp_path / "rec.json").exists()


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_trotter_check_rejects_non_finite_t(tmp_path, capsys, t):
    assert run_cli(["trotter-check", "--n", "4", f"--t={t}",
                    "--out", str(tmp_path / "rec.json")]) == 2
    assert "t must be finite" in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


def test_optimize_rejects_start_steps_above_steps(tmp_path):
    assert run_cli(["optimize", "--n", "3", "--target", "custom",
                    "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                    "--steps", "2", "--start-steps", "5", "--restarts", "0",
                    "--out", str(tmp_path / "rec.json")]) == 2
    assert not (tmp_path / "rec.json").exists()


def _count_target_builds(monkeypatch, argv):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return targets.make_target(*args, **kwargs)

    monkeypatch.setattr(cli, "make_target", counted)
    assert run_cli(argv) == 0
    return len(calls)


def test_target_built_once_per_emitter_count(tmp_path, monkeypatch):
    out = str(tmp_path / "rec.json")
    assert _count_target_builds(monkeypatch, ["replay", "--sequence", "cat2",
                                              "--sweep-conventions", "--out", out]) == 1
    assert _count_target_builds(monkeypatch, ["size-sweep", "--sequence", "cat2",
                                              "--n-list", "38,40,42", "--out", out]) == 3


def _count_gates_eigh(monkeypatch, argv):
    """Per np.linalg.eigh call that dickesim.gates makes while the CLI runs
    argv, the number of matrices it diagonalizes."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return np.linalg.eigh(a, *args, **kwargs)

    linalg = SimpleNamespace(**{**vars(np.linalg), "eigh": counted})
    monkeypatch.setattr(gates, "np", SimpleNamespace(**{**vars(np), "linalg": linalg}))
    assert run_cli(argv) == 0
    monkeypatch.undo()
    return calls


def test_per_step_wigner_work_is_pinned(tmp_path, monkeypatch):
    # one propagation yields every step's state; one sphere grid per state
    # (M = 11 steps plus the final rotation); the kernel's J_y-basis bands are
    # built once per space and looked up by every later grid; one fork per
    # command writes the CSVs with two usable CPUs, never one per grid
    calls = {"propagate": 0, "spherical_wigner_values": 0, "_kernel_diagonal": 0, "fork": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "propagate")
    counted(wigner, "spherical_wigner_values")
    counted(wigner, "_kernel_diagonal")
    counted(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    gates._propagation_bases.cache_clear()
    assert run_cli(["wigner", "--sequence", "gkp-square", "--per-step",
                    "--out", str(tmp_path / "gkp")]) == 0
    assert calls == {"propagate": 1, "spherical_wigner_values": 12, "_kernel_diagonal": 1,
                     "fork": 1}
    assert run_cli(["wigner", "--sequence", "cat2", "--n", "7", "--per-step",
                    "--out", str(tmp_path / "cat")]) == 0
    assert calls["_kernel_diagonal"] == 2 and calls["fork"] == 2


def _two_step_sequence_file(tmp_path):
    path = tmp_path / "two-step.json"
    step = {"axis": [1.0, 0.0, 0.0], "theta": 0.4, "alpha": 0.2, "beta": 0.1}
    path.write_text(json.dumps({
        "format_version": 1, "n_emitters": 4, "convention": "spin-j",
        "exponent_sign": 1, "squeeze_order": "xy",
        "squeeze_composition": "product", "rotation_composition": "combined",
        "steps": [step, step], "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.3},
        "metadata": {},
    }))
    return str(path)


@pytest.mark.parametrize("sequence, blocked", [
    ("cat2", "final.csv"),          # the child's whole file; the cut is the file boundary
    ("two-step", "final.csv"),      # the child's whole file; the cut is inside step02.csv
    ("cat2", "step01.csv"),         # the process's file
    ("two-step", "step01.csv"),     # the process's, while the child waits for an offset
])
def test_csv_write_failure_with_two_writers_is_that_of_one(tmp_path, capsys, monkeypatch,
                                                           forks, sequence, blocked):
    # a directory where a CSV goes fails the command with exit 2 and the same
    # error line whichever writer meets it, and leaves the files one writer
    # leaves: in the process's half the open fails before any fork, and a
    # failed child's files are written as one writer writes them; a file
    # written holds its bytes, and the child is reaped: no child or zombie is left
    seq = _two_step_sequence_file(tmp_path) if sequence == "two-step" else sequence
    argv = ["wigner", "--sequence", seq, "--n", "4", "--per-step", "--n-theta", "9",
            "--n-phi", "8", "--out"]

    def export(out, threshold):
        monkeypatch.setattr(wigner, "SPLIT_MIN_SAMPLES", threshold)
        code = run_cli(argv + [str(out)])
        return code, capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()
                                           if p.is_file()}

    code, _, clean = export(tmp_path / "clean", 10 ** 9)
    assert code == 0
    runs = {}
    for writers, threshold in (("one", 10 ** 9), ("two", 1)):
        (tmp_path / writers / blocked).mkdir(parents=True)
        runs[writers] = export(tmp_path / writers, threshold)
    (code1, one, one_files), (code2, two, two_files) = runs["one"], runs["two"]
    assert code1 == code2 == 2 and len(forks) == (0 if blocked == "step01.csv" else 1)
    assert one.err == f"error: [Errno 21] Is a directory: '{tmp_path / 'one' / blocked}'\n"
    assert two.err == one.err.replace(str(tmp_path / "one"), str(tmp_path / "two"))
    assert all(clean[name] == data for name, data in {**one_files, **two_files}.items())
    assert set(two_files) == set(one_files)
    if blocked == "final.csv":
        assert set(one_files) == set(clean) - {"final.csv"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_default_plane_builds_one_coefficient_matrix_and_one_table(tmp_path, monkeypatch):
    # N = 40: one (2N+1)^2 coefficient matrix, and one Hermite table on the 201
    # points that the square default window's x and p axes share
    shapes = {"_plane_coefficients": [], "_hermite_table": []}

    def counted(name):
        real = getattr(wigner, name)

        def wrapper(*args, **kwargs):
            found = real(*args, **kwargs)
            shapes[name].append(found.shape)
            return found
        monkeypatch.setattr(wigner, name, wrapper)

    counted("_plane_coefficients")
    counted("_hermite_table")
    assert run_cli(["wigner", "--sequence", "cat2", "--surface", "plane",
                    "--out", str(tmp_path / "plane.csv")]) == 0
    assert shapes == {"_plane_coefficients": [(81, 81)], "_hermite_table": [(201, 81)]}


@pytest.mark.parametrize("n, x_max", [("40", "1e6"), ("4", "1e100")])
def test_plane_far_window_stays_finite(tmp_path, n, x_max):
    # the recurrence used to overflow on radii far past the state's support
    out, record = tmp_path / "p.csv", tmp_path / "rec.json"
    assert run_cli(["wigner", "--sequence", "cat2", "--n", n, "--surface", "plane",
                    "--resolution", "21", "--x-max", x_max,
                    "--out", str(out), "--record", str(record)]) == 0
    assert np.isfinite(json.loads(record.read_text())["outputs"]["files"][0]["integral"])
    assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))


@pytest.mark.parametrize("surface, grid_fn", [("sphere", "spherical_wigner"),
                                             ("plane", "planar_wigner")])
def test_wigner_non_finite_grid_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           surface, grid_fn):
    # cat2 --per-step makes two grids; the second holds a NaN, so the first must
    # not be written either
    real, made = getattr(cli, grid_fn), []

    def nan_in_second(*args, **kwargs):
        grid = real(*args, **kwargs)
        made.append(grid)
        if len(made) == 2:
            grid.values[0, 0] = float("nan")
        return grid

    monkeypatch.setattr(cli, grid_fn, nan_in_second)
    out, record = tmp_path / "grids", tmp_path / "rec.json"
    assert run_cli(["wigner", "--sequence", "cat2", "--n", "6", "--per-step",
                    "--surface", surface, "--resolution", "21",
                    "--out", str(out), "--record", str(record)]) == 3
    assert len(made) == 2 and not record.exists() and not list(tmp_path.rglob("*.csv"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert str(out / "final.csv") in err[0]


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert run_cli(["closure", "--set", "rotations-only", "--out",
                        str(tmp_path / "rec.json")]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("record", [False, True])
def test_non_finite_record_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, record):
    monkeypatch.setattr(cli, "cmd_closure", lambda args: ({"set": args.set},
                                                          {"value": float("nan")}))
    out = tmp_path / "rec.json"
    argv = ["closure", "--set", "rotations-only"] + (["--out", str(out)] if record else [])
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert not out.exists() and "{" not in captured.out
    assert os.listdir(tmp_path) == []


def test_huge_custom_amplitudes_normalize(tmp_path):
    fidelities = []
    for raw in ("[[1e308, 0], [1e308, 0]]", "[[1, 0], [1, 0]]"):
        amps, out = tmp_path / "amps.json", tmp_path / "rec.json"
        amps.write_text(raw)
        assert run_cli(["replay", "--sequence", "cat2", "--n", "1", "--target", "custom",
                        "--custom-amplitudes", str(amps), "--out", str(out)]) == 0
        fidelities.append(json.loads(out.read_text())["outputs"]["fidelity"])
    assert fidelities[0] == fidelities[1]


@pytest.mark.parametrize("sequence, n_steps", [("cat2", 1), ("gkp-square", 11)])
def test_sweep_diagonalizes_each_squeeze_once(tmp_path, monkeypatch, sequence, n_steps):
    # one eigh call diagonalizes every step's squeeze, which serves both
    # signs, where one per sign would make twice the blocks and one per
    # convention eight times: for even N the symmetric and antisymmetric
    # mirror blocks of both parity chains, for odd N the even chain alone,
    # whose mirror image is the odd chain; a second sweep repeats the work,
    # nothing carries over
    for n, blocks in ((40, 4), (41, 1)):
        # the per-space bases hold one more eigh, made once per process
        gates._propagation_bases(dickesim.DickeSpace(n))
        argv = ["replay", "--sequence", sequence, "--n", str(n), "--sweep-conventions",
                "--out", str(tmp_path / "rec.json")]
        assert _count_gates_eigh(monkeypatch, argv) == [blocks * n_steps], n
        assert _count_gates_eigh(monkeypatch, argv) == [blocks * n_steps], n


@pytest.mark.parametrize("sequence", ["cat2", "gkp-square"])
@pytest.mark.parametrize("n", [40, 41])
def test_sweep_rows_equal_single_convention_replays(tmp_path, sequence, n):
    out = tmp_path / "rec.json"
    assert run_cli(["replay", "--sequence", sequence, "--n", str(n),
                    "--sweep-conventions", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["outputs"]["sweep"]
    assert len(rows) == 24
    for row in rows:
        flags = [f"--{key.replace('_', '-')}={row[key]}" for key in row if key != "fidelity"]
        assert run_cli(["replay", "--sequence", sequence, "--n", str(n), *flags,
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["outputs"]["fidelity"] == row["fidelity"], row


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_get_the_mode_of_a_new_file(tmp_path, umask):
    # a record and a checkpoint go through a temporary file, which mkstemp
    # creates with mode 0600; each gets the mode open() gives a new file
    plain, seq_out, rec_out = tmp_path / "plain.txt", tmp_path / "best.json", tmp_path / "rec.json"
    previous = os.umask(umask)
    try:
        plain.write_text("")
        assert run_cli(["optimize", "--n", "3", "--steps", "1", "--target", "coherent",
                        "--gamma", "0.2", "--restarts", "1", "--seq-out", str(seq_out),
                        "--out", str(rec_out)]) == 0
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE(path.stat().st_mode) for path in (plain, seq_out, rec_out)]
    assert modes == [0o666 & ~umask] * 3


def test_replay_custom_target_checkpoint(tmp_path):
    seq_out, rec_out = tmp_path / "best.json", tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "3", "--target", "custom",
                    "--custom-amplitudes", str(_custom_top(tmp_path, 4)),
                    "--steps", "1", "--restarts", "2", "--nm-iters", "200", "--seed", "5",
                    "--seq-out", str(seq_out), "--out", str(rec_out)]) == 0
    replay_out = tmp_path / "replay.json"
    assert run_cli(["replay", "--sequence", str(seq_out), "--out", str(replay_out)]) == 0
    best = json.loads(rec_out.read_text())["outputs"]["best_fidelity"]
    replay = json.loads(replay_out.read_text())
    assert replay["inputs"]["target"]["custom"] == [[0.0, 0.0]] * 3 + [[1.0, 0.0]]
    assert replay["outputs"]["fidelity"] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("target", [{"gamma": [3.0, 0.0]}, {"kind": "cat2", "gamma": [3.0]},
                                    {"kind": "cat2", "phi": None}])
def test_malformed_metadata_target_exits_2(tmp_path, capsys, target):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({
        "format_version": 1, "n_emitters": 6, "steps": [],
        "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.0},
        "metadata": {"target": target},
    }))
    assert run_cli(["replay", "--sequence", str(seq_path)]) == 2
    assert capsys.readouterr().err.startswith("error: metadata.target: ")
    with pytest.raises(SequenceFileError):
        cli._target_spec_from_args(cli.build_parser().parse_args(
            ["replay", "--sequence", str(seq_path)]), target)


def test_missing_target_names_what_the_command_lacks(tmp_path, capsys):
    # commands that read no sequence file name their own missing flags;
    # the sequence-file wording stays with the commands that read one
    assert run_cli(["optimize", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: optimize needs --target\n"
    assert run_cli(["wigner", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: wigner needs --sequence or --target\n"
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({
        "format_version": 1, "n_emitters": 3, "steps": [],
        "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.0},
    }))
    no_metadata = ("error: no --target given and the sequence file carries no "
                   "target metadata\n")
    assert run_cli(["replay", "--sequence", str(seq_path)]) == 2
    assert capsys.readouterr().err == no_metadata
    assert run_cli(["size-sweep", "--sequence", str(seq_path), "--n-list", "3"]) == 2
    assert capsys.readouterr().err == no_metadata


@pytest.mark.parametrize("flag", ["--steps", "--start-steps"])
def test_optimize_negative_step_count_names_flag(tmp_path, capsys, flag):
    argv = ["optimize", "--n", "3", "--target", "coherent", "--gamma", "0.1",
            "--steps", "2", "--restarts", "0", "--out", str(tmp_path / "rec.json")]
    assert run_cli(argv + [flag, "-1"]) == 2
    assert f"{flag} must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


@pytest.mark.parametrize("flag, argv", [
    ("--gamma", ["replay", "--sequence", "cat2", "--target", "cat2", "--gamma", "1e308"]),
    ("--gamma", ["replay", "--sequence", "cat2", "--target", "cat2", "--gamma", "1e308j"]),
    ("--gamma", ["replay", "--sequence", "cat2", "--target", "cat2",
                 "--gamma", "1.5e308+1.5e308j"]),
    ("--phi", ["replay", "--sequence", "cat2", "--target", "cat4", "--phi", "1e308"]),
    ("--phi", ["size-sweep", "--sequence", "cat2", "--n-list", "4,6", "--target", "cat4",
               "--phi=-1e308"]),
    *[(flag, ["optimize", "--n", "3", "--target", "coherent", "--gamma", "0.1",
              flag, value]) for flag, value in (
        ("--restarts", "-1"), ("--nm-iters", "-1"), ("--freeze-rounds", "0"),
        ("--nm-tol", "nan"), ("--nm-tol", "inf"), ("--nm-tol", "-1"))],
])
def test_boundary_values_exit_2_naming_the_flag(tmp_path, capsys, flag, argv):
    out = tmp_path / "rec.json"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
    assert not out.exists()


_EXTREME_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "-0.0", "0", "-1",
                   "1e150", "40"]


@pytest.mark.filterwarnings("ignore::dickesim.targets.TruncationWarning")
@pytest.mark.parametrize("flag", ["--gamma", "--phi", "--squeezing-db"])
@pytest.mark.parametrize("kind", [kind.value for kind in dickesim.TargetKind])
@pytest.mark.parametrize("command", [["replay", "--sequence", "cat2", "--n", "6"],
                                     ["size-sweep", "--sequence", "cat2", "--n-list", "4,6"]],
                         ids=["replay", "size-sweep"])
def test_target_flags_at_extreme_values_exit_cleanly(tmp_path, capsys, command, kind, flag):
    # every target kind under extreme --gamma, --phi and --squeezing-db:
    # a record (exit 0) or one stderr line (exit 2 or 3), never a traceback
    # or a RuntimeWarning
    amps = tmp_path / "amps.json"
    amps.write_text("[1, 0, 0, 0, 0, 0, [0, 1]]")  # N = 6
    extra = ["--custom-amplitudes", str(amps)] if kind == "custom" else []
    for value in _EXTREME_VALUES:
        argv = [*command, "--target", kind, f"{flag}={value}", *extra,
                "--out", str(tmp_path / "rec.json")]
        code = run_cli(argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3), argv
        if code:
            assert len(err) == 1, (argv, err)


_WIGNER_AT_4 = ["wigner", "--sequence", "cat2", "--n", "4", "--out", "w.csv"]
# (command, flag, text after the value): every flag that sizes a grid, sets
# a time or picks N, alone at each extreme value; "40" is the largest valid N,
# since a huge valid N would start unbounded work
_NUMERIC_FLAG_CASES = [
    *[(_WIGNER_AT_4 + ["--surface", "plane"], flag, "")
      for flag in ("--x-max", "--p-max", "--resolution")],
    *[(_WIGNER_AT_4, flag, "") for flag in ("--n-theta", "--n-phi")],
    (["trotter-check"], "--t", ""),
    (["trotter-check"], "--k-list", ",16,32,64"),
    (["replay", "--sequence", "cat2"], "--n", ""),
    (["optimize", "--target", "coherent", "--gamma", "0.2", "--steps", "1", "--restarts", "1",
      "--nm-iters", "50"], "--n", ""),
    (["trotter-check"], "--n", ""),
    (["wigner", "--sequence", "cat2", "--out", "w.csv"], "--n", ""),
    (["size-sweep", "--sequence", "cat2"], "--n-list", ""),
]


@pytest.mark.filterwarnings("ignore::dickesim.wigner.WindowWarning")
@pytest.mark.parametrize("command, flag, suffix", _NUMERIC_FLAG_CASES,
                         ids=[f"{case[0][0]}:{case[1][2:]}" for case in _NUMERIC_FLAG_CASES])
def test_numeric_flags_at_extreme_values_exit_cleanly(tmp_path, capsys, monkeypatch,
                                                       command, flag, suffix):
    # a record (exit 0) or one error line (exit 2 or 3), never a traceback
    # or a RuntimeWarning; argparse's own rejections print their usage first
    monkeypatch.chdir(tmp_path)  # wigner's grids
    record = "--record" if command[0] == "wigner" else "--out"
    for value in _EXTREME_VALUES:
        argv = [*command, f"{flag}={value}{suffix}", record, "rec.json"]
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            err = capsys.readouterr().err.splitlines()
            assert exc.code == 2 and err[0].startswith("usage: "), (argv, err)
            assert [line for line in err if "error: " in line] == err[-1:], (argv, err)
            continue
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3), argv
        if code:
            assert len(err) == 1, (argv, err)


_SEQUENCE_VALUES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-300, -0.0,
                    0.0, -1.0, 1e15]


def _with_value(doc: dict, field: str, value: float) -> dict:
    """A copy of the sequence document ``doc`` with ``value`` put into the
    last step's ``field``, its axis' first component, or the final theta."""
    doc = json.loads(json.dumps(doc))
    step = doc["steps"][-1]
    if field == "axis":
        step["axis"][0] = value
    elif field == "final_theta":
        doc["final_rotation"]["theta"] = value
    else:
        step[field] = value
    return doc


@pytest.mark.parametrize("composition", gates.SQUEEZE_COMPOSITIONS)
@pytest.mark.parametrize("n", [4, 40])  # one on each side of gates.RECURRENCE_MIN_LEVELS
def test_sequence_file_values_at_extremes_exit_cleanly(tmp_path, capsys, n, composition):
    # each extreme value in a step's theta, alpha, beta and axis, and in the
    # final theta, replayed plain and swept: a record (exit 0) or one error
    # line (exit 2 or 3), never a traceback or a RuntimeWarning
    assert 4 + 1 < gates.RECURRENCE_MIN_LEVELS <= 40 + 1
    base = {
        "format_version": 1, "n_emitters": n, "convention": "pauli-sum",
        "exponent_sign": -1, "squeeze_order": "xy",
        "squeeze_composition": composition, "rotation_composition": "combined",
        "steps": [{"axis": [0.0, 1.0, 0.0], "theta": 0.4, "alpha": 0.2, "beta": -0.1},
                  {"axis": [1.0, 0.0, 0.0], "theta": 0.3, "alpha": 0.1, "beta": 0.2}],
        "final_rotation": {"axis": [0.0, 0.0, 1.0], "theta": 0.5},
        "metadata": {"target": {"kind": "coherent", "gamma": [0.1, 0.0]}},
    }
    seq, out = tmp_path / "seq.json", tmp_path / "rec.json"
    codes = set()
    for field in ("theta", "alpha", "beta", "axis", "final_theta"):
        for value in _SEQUENCE_VALUES:
            seq.write_text(json.dumps(_with_value(base, field, value)))
            for sweep in ([], ["--sweep-conventions"]):
                argv = ["replay", "--sequence", str(seq), *sweep, "--out", str(out)]
                code = run_cli(argv)
                err = capsys.readouterr().err.splitlines()
                assert code in (0, 2, 3), (field, value, argv)
                if code:
                    assert len(err) == 1, (field, value, argv, err)
                    assert err[0].startswith(("error: ", "numerical failure: ")), err
                codes.add(code)
    assert codes == {0, 2, 3}


_OPTIMIZE_AT_3 = ["optimize", "--n", "3", "--target", "coherent", "--gamma", "0.2",
                  "--steps", "1", "--restarts", "1", "--nm-iters", "20", "--freeze-rounds", "1"]
# per numeric optimize flag, one valid value that is huge; a count past its
# cap is refused rather than run
_OPTIMIZE_HUGE = {"--steps": str(10 ** 12), "--start-steps": str(10 ** 12),
                  "--restarts": str(10 ** 12), "--nm-iters": str(10 ** 12),
                  "--freeze-rounds": str(10 ** 12), "--nm-tol": "1e300", "--stop-fidelity": "1"}


def _optimize_exits_cleanly(capsys, argv) -> int:
    """Run ``argv``; assert a record (exit 0) or one error line (exit 2 or
    3), argparse's own rejections after their usage; return the code."""
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err.splitlines()
        assert exc.code == 2 and err[0].startswith("usage: "), (argv, err)
        assert [line for line in err if "error: " in line] == err[-1:], (argv, err)
        return exc.code
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3), argv
    if code:
        assert len(err) == 1 and err[0].startswith(("error: ", "numerical failure: ")), (argv, err)
    return code


@pytest.mark.parametrize("flag", list(_OPTIMIZE_HUGE))
def test_optimize_flags_at_extreme_values_exit_cleanly(tmp_path, capsys, flag):
    # each extreme value alone in one flag of a small search: no traceback,
    # no RuntimeWarning, and a huge count (10^12 restarts ran until killed)
    # is refused at once by its cap
    caps = {"--steps": cli.OPTIMIZE_MAX_STEPS, "--start-steps": cli.OPTIMIZE_MAX_STEPS,
            "--restarts": cli.OPTIMIZE_MAX_RESTARTS, "--nm-iters": cli.OPTIMIZE_MAX_NM_ITERS,
            "--freeze-rounds": cli.OPTIMIZE_MAX_FREEZE_ROUNDS}
    out = str(tmp_path / "rec.json")
    for value in [*_EXTREME_VALUES[:-2], _OPTIMIZE_HUGE[flag]]:
        _optimize_exits_cleanly(capsys, [*_OPTIMIZE_AT_3, f"{flag}={value}", "--out", out])
    if flag in caps:
        argv = [*_OPTIMIZE_AT_3, f"{flag}={caps[flag] + 1}", "--out", out]
        assert _optimize_exits_cleanly(capsys, argv) == 2


def test_optimize_custom_amplitudes_at_extreme_values_exit_cleanly(tmp_path, capsys):
    # each extreme value as an entry of --custom-amplitudes and as an
    # entry's imaginary part
    amps = tmp_path / "amps.json"
    argv = [*_OPTIMIZE_AT_3[:3], "--target", "custom", "--custom-amplitudes", str(amps),
            *_OPTIMIZE_AT_3[7:], "--out", str(tmp_path / "rec.json")]
    codes = set()
    for value in [float(v) for v in _EXTREME_VALUES[:-2]] + [1e300]:
        for entry in (value, [0.5, value]):
            amps.write_text(json.dumps([entry, 1.0, [0.0, 1.0], 0.0]))
            codes.add(_optimize_exits_cleanly(capsys, argv))
    assert codes == {0, 2}


@pytest.mark.parametrize("flags", [["--n-theta", "-1"], ["--n-phi", "-1"],
                                   ["--surface", "plane", "--x-max", "-1"],
                                   ["--surface", "plane", "--p-max", "-1"]])
def test_wigner_negative_grid_flags_exit_2(tmp_path, capsys, monkeypatch, flags):
    # 0 picks the default grid; a negative size or half-width is refused
    # with one error line and no file
    monkeypatch.chdir(tmp_path)
    assert run_cli([*_WIGNER_AT_4, *flags, "--record", "rec.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-negative" in err[0], err
    assert not list(tmp_path.iterdir())
    assert run_cli([*_WIGNER_AT_4, *flags[:-1], "0", "--record", "rec.json"]) == 0


_CLOSURE_SETS = ["squeezing-rotations", "rotations-only", "oscillator"]


@pytest.mark.parametrize("closure_set", _CLOSURE_SETS)
def test_closure_flags_at_extreme_values_exit_cleanly(tmp_path, capsys, closure_set):
    # a record (exit 0) or one stderr line (exit 2 or 3), never a traceback;
    # a value above a cap is refused before anything is allocated
    caps = {"--n": cli.CLOSURE_MAX_N, "--cutoff": cli.CLOSURE_MAX_CUTOFF}
    values = {flag: ["-1", "0", "1", "3", str(cap + 1)] for flag, cap in caps.items()}
    values["--rank-tol"] = ["nan", "inf", "-inf", "1e308", "1e-300", "-0.0", "0", "-1"]
    out = tmp_path / "rec.json"
    for flag, flag_values in values.items():
        for value in flag_values:
            argv = ["closure", "--set", closure_set, f"{flag}={value}", "--out", str(out)]
            code = run_cli(argv)
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 2, 3), argv
            if code:
                assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    for flag, read_by in (("--n", closure_set != "oscillator"),
                          ("--cutoff", closure_set == "oscillator")):
        if read_by:
            assert run_cli(["closure", "--set", closure_set,
                            f"{flag}={caps[flag] + 1}", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {flag} must be at most ")


_PAST_DENSE_CAP = str(cli.DENSE_MAX_N + 1)


@pytest.mark.parametrize("argv", [
    ["replay", "--sequence", "cat2", "--n", _PAST_DENSE_CAP],
    ["replay", "--sequence", "SEQ_FILE"],
    ["wigner", "--sequence", "cat2", "--n", _PAST_DENSE_CAP, "--per-step"],
    ["wigner", "--target", "coherent", "--gamma", "0.2", "--n", _PAST_DENSE_CAP],
    ["optimize", "--n", _PAST_DENSE_CAP, "--target", "coherent", "--gamma", "0.2"],
    ["trotter-check", "--n", _PAST_DENSE_CAP],
], ids=["replay", "replay-file", "wigner-sequence", "wigner-target", "optimize",
        "trotter-check"])
def test_dense_commands_refuse_n_past_their_cap(tmp_path, capsys, monkeypatch, argv):
    # the dense (N+1)^2 operators would take gigabytes: an N past the cap,
    # from --n or a sequence file, exits 2 at once with one line, writing nothing
    monkeypatch.chdir(tmp_path)
    doc = json.loads(Path(cli._resolve_sequence_path("cat2")).read_text())
    doc["n_emitters"] = cli.DENSE_MAX_N + 1
    Path("seq.json").write_text(json.dumps(doc))
    argv = ["seq.json" if arg == "SEQ_FILE" else arg for arg in argv]
    record = "--record" if argv[0] == "wigner" else "--out"
    started = time.perf_counter()
    assert run_cli([*argv, record, "rec.json"]) == 2
    assert time.perf_counter() - started < 1.0
    flag = "n_emitters" if "seq.json" in argv else "--n"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} must be at most {cli.DENSE_MAX_N}, got {_PAST_DENSE_CAP}"]
    assert sorted(os.listdir()) == ["seq.json"]


def test_size_sweep_reports_n_past_the_dense_cap_as_a_row(tmp_path):
    out = tmp_path / "rec.json"
    started = time.perf_counter()
    assert run_cli(["size-sweep", "--sequence", "cat2", "--n-list", f"40,{_PAST_DENSE_CAP}",
                    "--target", "coherent", "--gamma", "0.2", "--out", str(out)]) == 0
    assert time.perf_counter() - started < 1.0
    rows = json.loads(out.read_text())["outputs"]["table"]
    assert "fidelity" in rows[0]
    assert rows[1] == {"n_emitters": cli.DENSE_MAX_N + 1,
                       "error": f"n_emitters must be at most {cli.DENSE_MAX_N}, "
                                f"got {_PAST_DENSE_CAP}"}


def test_wigner_per_step_refuses_a_target_source(tmp_path, capsys, monkeypatch):
    # a target is one state: --per-step serves sequence sources only
    monkeypatch.chdir(tmp_path)
    assert run_cli(["wigner", "--target", "coherent", "--gamma", "0.2", "--n", "4",
                    "--per-step", "--out", "D", "--record", "rec.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --per-step needs --sequence"), err
    assert not os.listdir()


def test_optimize_start_steps_zero_is_honoured(tmp_path):
    out = tmp_path / "rec.json"
    assert run_cli(["optimize", "--n", "3", "--target", "coherent", "--gamma", "0.1",
                    "--steps", "1", "--start-steps", "0", "--restarts", "0",
                    "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["inputs"]["start_steps"] == 0
    # the history records the growth from M = 0 to M = 1
    assert [h[:2] for h in rec["outputs"]["history_tail"]] == [[-1, -1], [-1, 1], [-1, -1]]


def test_no_package_module_imports_scipy():
    package = Path(dickesim.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        assert not [m for m in modules if m.split(".")[0] == "scipy"], path.name


_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
import numpy as np
from dickesim import DickeSpace, QuantumState, apply_sequence, unflatten_params
from dickesim.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit code != 0: {argv}")
# the density path: a maximally mixed state is left unchanged
space, rho = DickeSpace(4), np.eye(5) / 5
out = apply_sequence(unflatten_params(space, 1, np.full(8, 0.3)), QuantumState(space, density=rho))
assert np.allclose(out.density, rho)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_cli_runs_without_scipy(tmp_path):
    commands = [
        ["replay", "--sequence", "cat2"],
        ["replay", "--sequence", "gkp-hexagonal"],
        ["replay", "--sequence", "gkp-square", "--sweep-conventions"],
        ["size-sweep", "--sequence", "cat2", "--n-list", "30,40"],
        ["wigner", "--target", "cat2", "--gamma", "1.5", "--n", "12", "--surface", "plane",
         "--resolution", "21", "--out", "plane.csv"],
        ["wigner", "--sequence", "cat2", "--per-step", "--squeeze-composition", "product",
         "--n-theta", "12", "--n-phi", "12", "--out", "grids"],
        ["closure", "--set", "squeezing-rotations", "--n", "4"],
        ["optimize", "--n", "4", "--steps", "1", "--restarts", "1", "--nm-iters", "50",
         "--target", "coherent", "--gamma", "0.5"],
        ["optimize", "--n", "3", "--steps", "2", "--restarts", "5", "--target", "coherent",
         "--gamma", "0.2", "--stop-fidelity", "0.99"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(dickesim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
