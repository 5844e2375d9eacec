"""Command-line interface.

Subcommands: replay, optimize, wigner, closure, trotter-check, size-sweep; each
returns (inputs, outputs), and :func:`main` alone makes, times and writes the record.
Exit codes: 0 success, 2 validation error, 3 numerical failure (NaN in a record too).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from .core import (
    DickeSpace,
    NormDriftError,
    NotHermitianError,
    QuantumState,
    _fidelity_with_vector,
    build_sx,
    build_sy,
)
from .gates import (
    CONVENTION_SWEEP,
    DEFAULT_CONVENTIONS,
    EXPONENT_SIGNS,
    ROTATION_COMPOSITIONS,
    SQUEEZE_COMPOSITIONS,
    SQUEEZE_ORDERS,
    Convention,
    GateConventions,
    _propagation_bases,
    flatten_params,
    propagate,
    propagate_sweep,
    unflatten_params,
)
from .optimizer import OptimizerConfig, grown_search
from .seqfile import (
    NonFiniteRecordError,
    ResultRecord,
    SequenceFileError,
    load_sequence_file,
    save_sequence_file,
)
from .targets import (
    GKP_CODEWORDS,
    TargetKind,
    TargetSpec,
    TruncationError,
    make_target,
)
from .algebra import (
    DEFAULT_RANK_TOL,
    _check_rank_tol,
    multipole_closure,
    oscillator_counterexample,
    trotter_commutator_error,
    trotter_sum_error,
)
from .wigner import (
    PLANAR_APPROXIMATION_LABEL,
    export_grids,
    planar_wigner,
    spherical_wigner,
)

BUNDLED_SEQUENCES = {
    "cat2": "cat2.json",
    "cat4": "cat4.json",
    "gkp-square": "gkp_square.json",
    "gkp-hexagonal": "gkp_hexagonal.json",
}


@functools.cache  # the package does not move while the process runs
def _resolve_sequence_path(name_or_path: str) -> str:
    if name_or_path in BUNDLED_SEQUENCES:
        ref = resources.files("dickesim") / "sequences" / BUNDLED_SEQUENCES[name_or_path]
        return str(ref)
    return name_or_path


def _target_spec_from_args(args, metadata_target: dict | None = None) -> TargetSpec:
    if args.target is None:
        if not metadata_target:
            raise SequenceFileError(
                "no --target given and the sequence file carries no target metadata")
        try:
            return TargetSpec.from_dict(metadata_target)
        except (TypeError, ValueError) as exc:
            raise SequenceFileError(f"metadata.target: {exc}") from exc
    doc = {"kind": args.target, "gamma": args.gamma, "phi": args.phi,
           "squeezing_db": args.squeezing_db, "gkp_codeword": args.gkp_codeword,
           "allow_truncation": args.allow_truncation}
    if args.target == TargetKind.CUSTOM.value:
        if not args.custom_amplitudes:
            raise ValueError("--target custom requires --custom-amplitudes FILE")
        with open(args.custom_amplitudes, "r", encoding="utf-8") as fh:
            doc["custom"] = json.load(fh)
        if doc["custom"] is None:  # from_dict would read null as "no amplitudes"
            raise ValueError("custom amplitudes must be a JSON list")
    spec = TargetSpec.from_dict(doc)
    spec.check(label=lambda field: "--" + field.replace("_", "-"))
    return spec


def _override_conventions(args, base: GateConventions) -> GateConventions:
    """``base`` with each convention flag given on the command line applied;
    the flags are named after the :meth:`GateConventions.to_dict` keys."""
    doc = base.to_dict()
    doc.update({key: getattr(args, key) for key in doc if getattr(args, key) is not None})
    return GateConventions.from_dict(doc)


# The largest N of the commands that build dense (N+1)^2 complex arrays: propagate's
# bases, trotter-check's operators.  replay --sequence cat2 took 0.7 s and 0.14 GB of peak
# RSS at N = 1000, 3.8 s and 0.43 GB at 2000, 12 s and 0.91 GB at 3000 (2-vCPU x86): ~100 B
# per entry, time ~N^3, so ~1.6 GB and ~30 s at 4000.  CI and tests use N <= 1000.
DENSE_MAX_N = 4_000


def _dense_space(n, source: str = "--n") -> DickeSpace:
    """DickeSpace(n) for a command that builds dense operators on it; past
    DENSE_MAX_N, a ValueError naming ``source`` before anything is built."""
    space = DickeSpace(n)
    if n > DENSE_MAX_N:
        raise ValueError(f"{source} must be at most {DENSE_MAX_N}, got {n}")
    return space


def _load_sequence(args, n_override=None) -> tuple:
    """The sequence file ``args.sequence`` (a path or bundled name) with the
    convention flags applied: (flat params, space, conventions, metadata)."""
    seq, file_conv, metadata = load_sequence_file(_resolve_sequence_path(args.sequence),
                                                  n_override)
    _dense_space(seq.space.n_emitters, "n_emitters" if n_override is None else "--n")
    return flatten_params(seq), seq.space, _override_conventions(args, file_conv), metadata


def _replay_fidelity(params, space: DickeSpace, conv: GateConventions,
                     target: QuantumState) -> float:
    """Fidelity with ``target`` of the flat-parameter sequence applied to |0>."""
    final = propagate(space, params, conv, QuantumState.ground(space).amplitudes)
    return _fidelity_with_vector(final, target)


_SWEEP_DICTS = tuple(c.to_dict() for c in CONVENTION_SWEEP)  # the rows' convention keys


def cmd_replay(args) -> tuple[dict, dict]:
    params, space, conv, metadata = _load_sequence(args, args.n)
    spec = _target_spec_from_args(args, metadata.get("target"))
    target = make_target(spec, space)
    inputs = {
        "sequence": args.sequence,
        "n_emitters": space.n_emitters,
        "target": spec.to_dict(),
        "conventions": conv.to_dict(),
        "sweep": bool(args.sweep_conventions),
    }
    outputs = {}
    if args.sweep_conventions:
        finals = propagate_sweep(space, params, QuantumState.ground(space).amplitudes)
        rows = [{**c, "fidelity": _fidelity_with_vector(final, target)}
                for c, final in zip(_SWEEP_DICTS, finals)]
        rows.sort(key=lambda r: -r["fidelity"])
        outputs["sweep"] = rows
        outputs["fidelity"] = rows[0]["fidelity"]
        outputs["best_conventions"] = {k: rows[0][k] for k in rows[0] if k != "fidelity"}
        print(f"best fidelity {rows[0]['fidelity']:.6f} under {outputs['best_conventions']}")
    else:
        fid = _replay_fidelity(params, space, conv, target)
        outputs["fidelity"] = fid
        outputs["conventions"] = conv.to_dict()
        print(f"fidelity {fid:.6f} under {outputs['conventions']}")
    if "reported_fidelity" in metadata:
        outputs["reported_fidelity"] = metadata["reported_fidelity"]
    return inputs, outputs


def cmd_optimize(args) -> tuple[dict, dict]:
    for flag, value, least, most in (
            ("--steps", args.steps, 0, OPTIMIZE_MAX_STEPS),
            ("--start-steps", args.start_steps, 0, OPTIMIZE_MAX_STEPS),
            ("--restarts", args.restarts, 0, OPTIMIZE_MAX_RESTARTS),
            ("--nm-iters", args.nm_iters, 0, OPTIMIZE_MAX_NM_ITERS),
            ("--freeze-rounds", args.freeze_rounds, 1, OPTIMIZE_MAX_FREEZE_ROUNDS)):
        if value is not None and not least <= value <= most:
            raise ValueError(f"{flag} must be {'positive' if least else 'non-negative'} "
                             f"and at most {most}, got {value}")
    if not 0 <= args.nm_tol < np.inf:
        raise ValueError(f"--nm-tol must be finite and non-negative, got {args.nm_tol}")
    if args.start_steps is not None and not args.resume and args.start_steps > args.steps:
        raise ValueError(f"--start-steps {args.start_steps} exceeds --steps {args.steps}, "
                         "the maximum sequence length")
    if args.stop_fidelity is not None and not 0 < args.stop_fidelity <= 1:
        raise ValueError(f"--stop-fidelity must lie in (0, 1], got {args.stop_fidelity}")
    conv = _override_conventions(args, DEFAULT_CONVENTIONS)
    space = _dense_space(args.n)
    if args.target is None:
        raise ValueError("optimize needs --target")
    spec = _target_spec_from_args(args)
    target = make_target(spec, space)
    config = OptimizerConfig(
        max_steps=args.steps,
        restarts=args.restarts,
        freeze_rounds=args.freeze_rounds,
        nm_max_iters=args.nm_iters,
        nm_tolerance=args.nm_tol,
        seed=args.seed,
        target_infidelity=1.0 - args.stop_fidelity if args.stop_fidelity else 0.0,
        conventions=conv,
    )
    start_steps = args.start_steps if args.start_steps is not None else min(2, args.steps)
    initial = None
    if args.resume:
        prev_seq, prev_conv, prev_meta = load_sequence_file(args.resume)
        found = {"n_emitters": prev_seq.space.n_emitters, **prev_conv.to_dict()}
        wanted = {"n_emitters": space.n_emitters, **conv.to_dict()}
        mismatch = [f"{key} {found[key]} in the checkpoint, {wanted[key]} requested"
                    for key in wanted if found[key] != wanted[key]]
        if mismatch:
            raise ValueError(f"--resume {args.resume} does not match this run: "
                             + "; ".join(mismatch))
        start_steps = prev_seq.n_steps
        initial = flatten_params(prev_seq)
        print(f"resuming from {args.resume} at {start_steps} steps "
              f"(recorded fidelity {prev_meta.get('best_fidelity')})")

    def checkpoint(params, fid):
        if not args.seq_out:
            return
        n_steps = (params.size - 3) // 5
        seq = unflatten_params(space, n_steps, params)
        save_sequence_file(args.seq_out, seq, conv, {
            "name": "optimized",
            "target": spec.to_dict(),
            "best_fidelity": fid,
            "seed": args.seed,
        })

    run = grown_search(space, target, config, start_steps, initial, checkpoint)
    inputs = {
        "n_emitters": args.n,
        "target": spec.to_dict(),
        "conventions": conv.to_dict(),
        "steps": args.steps,
        "start_steps": start_steps,
        "restarts": args.restarts,
        "freeze_rounds": args.freeze_rounds,
    }
    outputs = {
        "best_fidelity": run.best_fidelity,
        "n_steps": run.n_steps,
        "best_params": list(run.best_params),
        "history_tail": [list(h) for h in run.history[-10:]],
        "objective_evaluations": run.objective_evaluations,
        "sequence_file": args.seq_out,
    }
    print(f"best fidelity {run.best_fidelity:.6f} with {run.n_steps} steps")
    if args.seq_out:  # the last improvement has already written the final checkpoint
        print(f"sequence written to {args.seq_out}")
    return inputs, outputs


def cmd_wigner(args) -> tuple[dict, dict]:
    outputs = {"files": []}
    inputs = {"surface": args.surface}
    if args.per_step and not args.sequence:
        raise ValueError("--per-step needs --sequence: a target is one state, not a sequence")
    if args.sequence:
        params, space, conv, _ = _load_sequence(args, args.n)
        inputs.update(sequence=args.sequence, n_emitters=space.n_emitters,
                      conventions=conv.to_dict(),
                      per_step=bool(args.per_step))
        vecs = propagate(space, params, conv,
                         QuantumState.ground(space).amplitudes, per_step=args.per_step)
        states = [QuantumState(space, amplitudes=v) for v in (vecs if args.per_step else [vecs])]
    else:
        if args.target is None:
            raise ValueError("wigner needs --sequence or --target")
        spec = _target_spec_from_args(args)
        space = _dense_space(40 if args.n is None else args.n)
        inputs.update(target=spec.to_dict(), n_emitters=space.n_emitters)
        states = [make_target(spec, space)]

    out = args.out or "wigner.csv"
    paths = [out]
    if len(states) > 1:  # --per-step: a directory of step01.csv, ..., final.csv
        names = [f"step{i:02d}.csv" for i in range(1, len(states))] + ["final.csv"]
        paths = [os.path.join(out, name) for name in names]
    made = []  # every grid is computed and checked before any file is written
    for st, path in zip(states, paths):
        if args.surface == "sphere":
            grid = spherical_wigner(st, args.n_theta, args.n_phi)
            extra = {"integral": grid.integral()}
        else:
            grid = planar_wigner(st, args.x_max, args.p_max, args.resolution)
            extra = {"integral": grid.integral(),
                     "approximation": PLANAR_APPROXIMATION_LABEL,
                     "window_clipped": grid.window_clipped}
        if not (np.isfinite(grid.values).all() and np.isfinite(extra["integral"])):
            raise NonFiniteRecordError(f"the Wigner grid for {path} holds NaN or infinity; "
                                       f"no file was written")
        made.append((grid, path, extra))
    if len(states) > 1:
        os.makedirs(out, exist_ok=True)
    started = time.perf_counter()
    writers = export_grids([(grid, path) for grid, path, _ in made])
    print(f"csv: {sum(grid.values.size for grid, _, _ in made)} samples, {writers} writer"
          f"{'s' if writers > 1 else ''}, {time.perf_counter() - started:.3f} s")
    for grid, path, extra in made:
        outputs["files"].append({"path": path, **extra})
        print(f"wrote {path} (integral {extra['integral']:.6f})")
    if args.surface == "plane":
        outputs["approximation"] = PLANAR_APPROXIMATION_LABEL
        print(f"planar Wigner uses the {PLANAR_APPROXIMATION_LABEL} approximation")
    return inputs, outputs


# The largest counts optimize accepts, far above what CI and the benchmark
# pass (--restarts 50, --nm-iters 1500, --steps up to 6), so that a huge count
# is refused instead of running for days: every restart or round is a full
# Nelder-Mead run, a million iterations take a minute or more at ~50 us per
# objective call (N = 4), and a search grown to M steps (the paper's longest
# has 11) searches at every length on the way, on up to 5M + 3 parameters.
OPTIMIZE_MAX_STEPS = 100
OPTIMIZE_MAX_RESTARTS = 10_000
OPTIMIZE_MAX_FREEZE_ROUNDS = 1_000
OPTIMIZE_MAX_NM_ITERS = 1_000_000

# The largest --n of the rank search (N = 10,000 takes ~0.04 s on a 2-vCPU
# host and writes a ~0.1 MB record, which grows like N) and the largest
# --cutoff of the span closure, which reserves O(cutoff^4) floats (~0.5 GB
# of address space at 64).
CLOSURE_MAX_N = 10_000
CLOSURE_MAX_CUTOFF = 64


def cmd_closure(args) -> tuple[dict, dict]:
    inputs = {"set": args.set, "n_emitters": args.n, "cutoff": args.cutoff,
              "rank_tol": args.rank_tol}
    # for every set, though only the oscillator's reads it
    _check_rank_tol(args.rank_tol, "--rank-tol (rank_tol)")
    if args.set == "oscillator":
        if args.cutoff > CLOSURE_MAX_CUTOFF:
            raise ValueError(f"--cutoff must be at most {CLOSURE_MAX_CUTOFF}, got {args.cutoff}")
        report = oscillator_counterexample(args.cutoff, rank_tol=args.rank_tol)
    else:
        if args.n > CLOSURE_MAX_N:
            raise ValueError(f"--n must be at most {CLOSURE_MAX_N}, got {args.n}")
        report = multipole_closure(DickeSpace(args.n), squeezing=args.set == "squeezing-rotations")
    outputs = {name: getattr(report, name) for name in (
        "generator_count", "reached_dimension", "traceless_dimension", "target_dimension",
        "iterations", "universal", "artifact_count")}
    line = (f"closure: traceless {report.traceless_dimension}/{report.target_dimension} "
            f"(reached {report.reached_dimension}, artifacts {report.artifact_count}) "
            f"universal={report.universal}, ")
    if report.ranks is None:
        margin = report.min_admitted_residual / report.rank_tolerance
        # inf when nothing was admitted, which JSON cannot carry
        outputs["rank_tol_margin"] = float(margin) if np.isfinite(margin) else None
        line += f"smallest admitted residual {margin:.4g} x rank_tol"
    else:
        outputs["ranks"] = list(report.ranks)
        outputs["missing_rank"] = report.missing_rank
        missing = "none" if report.missing_rank is None else report.missing_rank
        line += (f"rank certificate: {len(report.ranks)} of {args.n} multipole ranks "
                 f"reached, smallest missing {missing}")
    print(line)
    return inputs, outputs


def cmd_trotter_check(args) -> tuple[dict, dict]:
    space = _dense_space(args.n)
    sx, sy = build_sx(space), build_sy(space)
    a, b = sx @ sx, sy
    ks = [int(k) for k in args.k_list.split(",")]
    if len(set(ks)) < 2:
        raise ValueError("--k-list needs at least two distinct k to fit a slope")
    if args.t == 0 or args.n == 1:  # S_x^2 = I/4 at N = 1 commutes with S_y
        raise ValueError("both product formulas are exact at --t 0 and at --n 1: no slope to fit")
    # t enters sqrt(t/k); beyond 2^52 rad, exp(-iHt) keeps no digit of its phases
    if not 0 <= args.t * float(np.linalg.norm(a) + np.linalg.norm(b)) < 2.0 ** 52:
        raise ValueError(f"--t must be finite, non-negative and keep the phases t |A + B| "
                         f"below 2^52 rad, got {args.t}")
    sum_errors = [trotter_sum_error(a, b, args.t, k) for k in ks]
    comm_errors = [trotter_commutator_error(a, b, args.t, k) for k in ks]
    # a product of k factors carries roundoff of about k (N + 1) eps
    if min(min(pair) / k for k, pair in zip(ks, zip(sum_errors, comm_errors))) \
            < 100 * space.dim * np.finfo(float).eps:
        raise ValueError(f"--t {args.t} leaves errors within 100x of their roundoff, "
                         "k (N + 1) eps: no slope to fit")

    def slope(errors):
        return float(np.polyfit(np.log(ks), np.log(errors), 1)[0])

    outputs = {
        "k": ks,
        "sum_errors": sum_errors,
        "commutator_errors": comm_errors,
        "sum_slope": slope(sum_errors),
        "commutator_slope": slope(comm_errors),
    }
    inputs = {"n_emitters": args.n, "t": args.t, "k_list": ks,
              "generators": "a = S_x^2, b = S_y"}
    print(f"sum slope {outputs['sum_slope']:.3f}, "
          f"commutator slope {outputs['commutator_slope']:.3f} (ideal -1)")
    return inputs, outputs


def cmd_size_sweep(args) -> tuple[dict, dict]:
    params, _, conv, metadata = _load_sequence(args)
    spec = _target_spec_from_args(args, metadata.get("target"))
    ns = [int(v) for v in args.n_list.split(",")]
    spec.check()  # errors that hold at every N end the command; the rest are rows
    rows = []
    for n in ns:
        _propagation_bases.cache_clear()  # one N's kernel data at a time, not two
        try:
            space = _dense_space(n, "n_emitters")
            fid = _replay_fidelity(params, space, conv, make_target(spec, space))
            rows.append({"n_emitters": n, "fidelity": fid})
            print(f"N={n}: fidelity {fid:.6f}")
        except (TruncationError, ValueError) as exc:
            rows.append({"n_emitters": n, "error": str(exc)})
            print(f"N={n}: error {exc}")
    fids = [r["fidelity"] for r in rows if "fidelity" in r]
    outputs = {"table": rows}
    if fids:
        outputs["fidelity_std"] = float(np.std(fids))
        print(f"fidelity std over N: {outputs['fidelity_std']:.6f}")
    inputs = {"sequence": args.sequence, "n_list": ns,
              "target": spec.to_dict(),
              "conventions": conv.to_dict()}
    return inputs, outputs


def _add_convention_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--convention", choices=[c.value for c in Convention], default=None)
    p.add_argument("--squeeze-order", choices=SQUEEZE_ORDERS, default=None)
    p.add_argument("--squeeze-composition", choices=SQUEEZE_COMPOSITIONS, default=None)
    p.add_argument("--rotation-composition", choices=ROTATION_COMPOSITIONS, default=None)
    p.add_argument("--exponent-sign", type=int, choices=EXPONENT_SIGNS, default=None)


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", default=None,
                   choices=[k.value for k in TargetKind])
    p.add_argument("--gamma", default="3", help="complex, e.g. '3' or '2+1j'")
    p.add_argument("--phi", type=float, default=float(np.pi / 4))
    p.add_argument("--squeezing-db", type=float, default=10.0)
    p.add_argument("--gkp-codeword", choices=GKP_CODEWORDS, default="sensor")
    p.add_argument("--allow-truncation", action="store_true",
                   help="accept targets whose tail beyond |N> exceeds the error limit")
    p.add_argument("--custom-amplitudes", default=None,
                   help="JSON file with a list of amplitudes ([re, im] pairs)")


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Collective-spin state preparation: replay, optimize and analyze "
                    "rotation/squeezing pulse sequences on the Dicke ladder.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("replay", help="apply a pulse sequence and score it against a target")
    p.add_argument("--sequence", required=True,
                   help=f"path or bundled name: {', '.join(BUNDLED_SEQUENCES)}")
    p.add_argument("--n", type=int, default=None, help="override emitter count")
    p.add_argument("--sweep-conventions", action="store_true",
                   help="evaluate every convention combination and report the best")
    _add_target_flags(p)
    _add_convention_flags(p)
    p.add_argument("--out", dest="record", default=None, help="write the result record here")

    p = sub.add_parser("optimize", help="search for a pulse sequence preparing a target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=3, help="maximum sequence length M")
    p.add_argument("--start-steps", type=int, default=None,
                   help="initial M for the growth schedule (default 2)")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--freeze-rounds", type=int, default=2, help="Nelder-Mead rounds per restart")
    p.add_argument("--nm-iters", type=int, default=2000)
    p.add_argument("--nm-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stop-fidelity", type=float, default=None,
                   help="stop once this fidelity is reached")
    p.add_argument("--resume", default=None, help="checkpoint sequence file to resume from")
    p.add_argument("--seq-out", default=None, help="checkpoint/output sequence file")
    _add_target_flags(p)
    _add_convention_flags(p)
    p.add_argument("--out", dest="record", default=None)

    p = sub.add_parser("wigner", help="export Wigner-function grids as CSV")
    p.add_argument("--sequence", default=None)
    p.add_argument("--per-step", action="store_true",
                   help="one grid per step (sequence sources only)")
    p.add_argument("--n", type=int, default=None,
                   help="emitter count (default: the sequence file's, else 40)")
    p.add_argument("--surface", choices=["sphere", "plane"], default="sphere")
    p.add_argument("--n-theta", type=int, default=0)
    p.add_argument("--n-phi", type=int, default=0)
    p.add_argument("--x-max", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=0.0)
    p.add_argument("--resolution", type=int, default=201)
    _add_target_flags(p)
    _add_convention_flags(p)
    p.add_argument("--out", default=None,
                   help="CSV path, or directory with --per-step")
    p.add_argument("--record", default=None, help="write the result record here")

    p = sub.add_parser("closure", help="Lie-algebra closure / controllability check")
    p.add_argument("--set", choices=["squeezing-rotations", "rotations-only", "oscillator"],
                   required=True)
    p.add_argument("--n", type=int, default=4,
                   help=f"emitter count of the Dicke sets, 1..{CLOSURE_MAX_N}")
    p.add_argument("--cutoff", type=int, default=12,
                   help=f"Fock cutoff of the oscillator set, 4..{CLOSURE_MAX_CUTOFF}")
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                   help="relative novelty tolerance of the oscillator's span closure, "
                        "in [32 eps, 1) = [7.105e-15, 1); checked for every set, but the "
                        "two Dicke sets use the exact rank search and ignore it")
    p.add_argument("--out", dest="record", default=None)

    p = sub.add_parser("trotter-check", help="product-formula error scaling")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--k-list", default="8,16,32,64")
    p.add_argument("--out", dest="record", default=None)

    p = sub.add_parser("size-sweep", help="replay one sequence across system sizes")
    p.add_argument("--sequence", required=True)
    p.add_argument("--n-list", required=True, help="comma-separated emitter counts")
    _add_target_flags(p)
    _add_convention_flags(p)
    p.add_argument("--out", dest="record", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # looked up per call, so a replaced cmd_* function takes effect
        inputs, outputs = globals()["cmd_" + args.cmd.replace("-", "_")](args)
        record = ResultRecord(args.cmd, inputs, outputs, seed=getattr(args, "seed", None))
        if args.record:
            record.save(args.record)
            print(f"record written to {args.record}")
        else:
            sys.stdout.write(record.to_json())
    except (NormDriftError, NotHermitianError, TruncationError, NonFiniteRecordError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # SequenceFileError, JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a grid too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print(f"wall time: {time.perf_counter() - started:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
