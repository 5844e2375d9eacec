"""dickesim benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload optimize-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures with no tracing and reports the end-to-end metrics,
scaled to the reference host speed (see ``HostSpeed``).
``--trace 1`` traces the layer functions from outside (see tracer.py) and
reports the per-layer metrics, plus the tracing overhead measured in the same
process.  ``--smoke`` runs every workload at tiny sizes in both modes and
checks that every workload and metric named in BENCHMARK.json is emitted and
that the output checks ran.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark sets its own process, and every interpreter it starts, to one
BLAS thread, so that the numbers are a plain single-threaded baseline.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:   # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 4
SUBPROCESS_TIMEOUT_S = 150


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import dickesim from this checkout's src/ and nowhere else."""
    if not (SRC / "dickesim" / "__init__.py").is_file():
        fail(f"no dickesim sources under {SRC}; run from a full checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import dickesim
    if Path(dickesim.__file__).resolve().parent != (SRC / "dickesim").resolve():
        fail(f"imported dickesim from {dickesim.__file__}, not from {SRC}")


# ------------------------------------------------------------------ machine

def _blas_threads() -> dict:
    """Thread counts reported by each OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _git_commit():
    try:
        # The ceiling keeps git from reporting a repository that merely
        # contains this checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_block(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------ running

class Loop:
    """Closed loop, one caller: times each operation, then checks its output.

    Failures and the number of checks run accumulate over every call.
    """

    def __init__(self):
        self.failures = []
        self.checks = 0

    def run(self, ops, tracer=None, first_op_id: int = 1) -> list:
        from workloads import CheckFailed
        times = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = first_op_id + i
                tracer.recording = True
            error = None
            t0 = time.perf_counter()
            try:
                result = op.execute()
            except (Exception, SystemExit) as exc:   # an operation that raised has failed
                error = f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            if error is None:
                self.checks += 1
                try:
                    op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
            times.append(elapsed)
            if error is not None:
                self.failures.append({"op": op.kind, "error": error})
        return times

    def setup(self, cmd: list, kind: str) -> float:
        """Wall time of one set-up interpreter (see ``setup_command``)."""
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             timeout=SUBPROCESS_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if res.returncode != 0:
            self.failures.append({"op": f"setup:{kind}",
                                  "error": f"exit code {res.returncode}: "
                                           f"{res.stderr.decode(errors='replace')[-200:]}"})
        return elapsed


def setup_command(op, workdir: Path) -> list:
    """A fresh interpreter that runs the first operation and exits.

    It imports dickesim from a copy of src/ without __pycache__ and writes no
    bytecode, so it compiles the package from source, whether or not the
    checkout holds compiled files.
    """
    src = workdir / "setup-src"
    shutil.copytree(SRC / "dickesim", src / "dickesim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
            f"from dickesim.cli import main; sys.exit(main({op.argv!r}))"]


class HostSpeed:
    """How much slower than the reference the host ran each timed sample.

    Other tenants of a shared host slow the same code by up to ~1.7x, in
    spells from milliseconds to minutes, and a run lasts less than the
    longest spells.  So between the samples, in 10% of the timed time, the
    benchmark runs a fixed calibration unit of its own: small dense LAPACK at
    d = 41 and 101, a vectorized numpy call and plain Python, the mix dickesim
    spends its time on.  A sample's slowdown is the mean time of the units run
    right before and right after it, over the unit's fastest time on the
    reference machine (2 vCPUs, one BLAS thread); short samples share those
    batches of units.  Dividing a sample by its slowdown gives its time at
    reference speed.  The unit runs no dickesim code, so a change to the
    program moves the scaled times as it moves the wall times.
    """

    SHARE = 0.10
    REFERENCE_S = 1.5e-3

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._matrices = [m + m.T for m in (rng.standard_normal((d, d)) for d in (41, 101))]
        self._grid = rng.standard_normal(20000)
        self._owed = 0.0       # calibration time due
        self.samples, self.factors = [], []
        self._before = None    # slowdown measured by the last batch of units
        self.units, self.spent = 0, 0.0

    def unit(self) -> float:
        t0 = time.perf_counter()
        for m in self._matrices:
            self._np.linalg.eigh(m)
        self._np.cos(self._grid).sum()
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - t0

    def record(self, seconds: float) -> None:
        """Add a timed sample; calibrate once SHARE of the samples is due."""
        self.samples.append(seconds)
        self._owed += self.SHARE * seconds
        if self._owed >= self.REFERENCE_S:
            self._calibrate()

    def _calibrate(self) -> None:
        times = [self.unit()]
        while sum(times) < self._owed:
            times.append(self.unit())
        self._owed = max(0.0, self._owed - sum(times))
        after = statistics.fmean(times) / self.REFERENCE_S
        slowdown = after if self._before is None else (self._before + after) / 2
        self.factors += [slowdown] * (len(self.samples) - len(self.factors))
        self._before = after
        self.units += len(times)
        self.spent += sum(times)

    def scaled(self) -> list:
        """Every sample, in order, divided by its slowdown."""
        if len(self.factors) < len(self.samples):
            self._calibrate()
        return [t / f for t, f in zip(self.samples, self.factors)]

    def mean_slowdown(self) -> float:
        """Slowdown over the whole run, each sample weighted by its time."""
        return sum(t * f for t, f in zip(self.samples, self.factors)) / sum(self.samples)


def tail(times):
    """The highest percentile that has ten samples beyond it: the 11th slowest.

    Below 22 samples that would not lie above the median, so the slowest
    sample is reported instead (percentile 100, none beyond).
    Returns (value, percentile, samples beyond).
    """
    xs = sorted(times)
    n = len(xs)
    if n < 22:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy as np
    import resource
    import warnings
    from workloads import PLANS
    from tracer import Tracer

    token = np.random.default_rng(seed).integers(1 << 48)
    workdir = OUT_DIR / f"{workload}-{token:012x}"
    shutil.rmtree(workdir, ignore_errors=True)    # left by a run that was killed
    workdir.mkdir(parents=True)
    try:
        plan = PLANS[workload](seed, str(workdir), smoke)
        loop = Loop()
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "profile": "smoke" if smoke else "full"}
        # Truncation and window warnings are expected for the bundled GKP
        # tables; each would print once and make the first call differ.
        warnings.simplefilter("ignore")
        if not trace:
            setup_cmd = setup_command(plan.warmup, workdir)
            w_times = loop.run([plan.warmup])
            host = HostSpeed()
            pass_order = [i for i, op in enumerate(plan.ops) for _ in range(op.burst)]
            owner = []          # per sample: the operation's index, or -1 for set-up
            setups = runs = 0
            spent = 0.0

            def setup_sample():
                host.record(loop.setup(setup_cmd, plan.warmup.kind))
                owner.append(-1)

            # The plan repeats, operation by operation, until the requested
            # seconds are spent and every operation has run plan.min_passes
            # times.  Set-up interpreters run evenly over that time, so that
            # set-up and timed samples both spread over the whole run; their
            # own time does not count toward the seconds.  Both are scaled
            # to reference speed alike.
            while runs < plan.min_passes * len(pass_order) or spent < seconds:
                while setups < SETUP_SAMPLES and spent >= setups * seconds / SETUP_SAMPLES:
                    setup_sample()
                    setups += 1
                t0 = time.perf_counter()
                i = pass_order[runs % len(pass_order)]
                t, = loop.run([plan.ops[i]])
                host.record(t)
                owner.append(i)
                spent += time.perf_counter() - t0
                runs += 1
            while setups < SETUP_SAMPLES:
                setup_sample()
                setups += 1

            def by_owner(values):
                return ([v for v, o in zip(values, owner) if o == -1],
                        [[v for v, o in zip(values, owner) if o == i] for i in range(len(plan.ops))])

            def summarize(values):
                setup, samples = by_owner(values)
                mean = [statistics.fmean(ts) for ts in samples]
                value, pct, beyond = tail(mean)
                return {"setup_s": statistics.median(setup),
                        "op_s_p50": statistics.median(mean),
                        "op_s_tail": value,
                        "ops_per_s": len(mean) / sum(mean)}, mean, (pct, beyond)

            metrics, mean, (pct, beyond) = summarize(host.scaled())
            raw, raw_mean, _ = summarize(host.samples)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            kinds = [op.kind for op in plan.ops]
            report.update(host_slowdown=host.mean_slowdown(), calibration_units=host.units,
                          calibration_s=host.spent, wall_metrics=raw,
                          setup_wall_s=by_owner(host.samples)[0], warmup_s=w_times[0],
                          ops=len(mean), tail_percentile=pct, tail_samples_beyond=beyond,
                          timed_wall_s=sum(t for t, o in zip(host.samples, owner) if o >= 0),
                          executions=runs,
                          samples_by_op={k: owner.count(i) for i, k in enumerate(kinds)},
                          scaled_mean_s_by_op=dict(zip(kinds, mean)),
                          wall_mean_s_by_op=dict(zip(kinds, raw_mean)))
            attempted = setups + 1 + runs
        else:
            tracer = Tracer()
            tracer.install()
            loop.run([plan.warmup], tracer, first_op_id=0)
            tracer.uninstall()
            # Each operation runs untraced, then traced, back to back, so that
            # both medians see the same spells of a shared machine.
            plain, traced = [], []
            for op_id, op in enumerate(plan.ops, start=1):
                plain += loop.run([op])
                tracer.install()
                traced += loop.run([op], tracer, first_op_id=op_id)
                tracer.uninstall()
            metrics = tracer.layer_metrics(range(1, len(plan.ops) + 1), cold_op=0)
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics["trace.overhead_s"] = overhead
            trace_path = OUT_DIR / f"trace-{workload}.npz"
            tracer.save(str(trace_path))
            report.update(samples=len(plain), op_s_p50_untraced=statistics.median(plain),
                          op_s_p50_traced=statistics.median(traced),
                          trace_overhead_s=overhead, spans=len(tracer.start),
                          trace_file=str(trace_path.relative_to(ROOT)))
            attempted = 1 + 2 * len(plan.ops)
        problems = plan.verdict()
        failed = len(loop.failures)
        report.update(plan.summary(), attempted=attempted, failed=failed,
                      fail_frac=failed / attempted, checks_run=loop.checks,
                      failures=loop.failures[:20], workload_problems=problems)
        return {"correct": not failed and not problems, "attempted": attempted,
                "failed": failed, "metrics": metrics, "report": report}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------------ smoke

def smoke(spec: dict) -> int:
    """Tiny run of every workload in both modes against BENCHMARK.json."""
    from workloads import PLANS
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(PLANS):
        problems.append(f"BENCHMARK.json workloads {names} != benchmark's {sorted(PLANS)}")
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--profile", "smoke"]
            t0 = time.perf_counter()
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=SUBPROCESS_TIMEOUT_S)
            lines = res.stdout.strip().splitlines()
            label = f"{name} trace={trace}"
            try:
                result = json.loads(lines[-1])
                report = json.loads(lines[-2].partition(" ")[2])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {res.returncode}) "
                                f"{res.stderr[-300:]}")
                continue
            got = set(result["metrics"])
            if res.returncode != 0 or set(result) != {"correct", "attempted", "failed",
                                                      "metrics"}:
                problems.append(f"{label}: exit {res.returncode}, keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed: {report.get('failures')} "
                                f"{report.get('workload_problems')}")
            if report.get("checks_run", 0) < 1:
                problems.append(f"{label}: no correctness check ran")
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ; missing "
                                f"{sorted(expected[trace] - got)}, extra {sorted(got - expected[trace])}")
            print(f"smoke {label}: {time.perf_counter() - t0:.1f} s, "
                  f"{result['attempted']} ops, {len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


# ------------------------------------------------------------------ main

def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "smoke"), default="full",
                   help="smoke: tiny sizes, used by --smoke")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and check the emitted names")
    args = p.parse_args(argv)
    import_program()
    spec = load_spec()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.smoke:
        return smoke(spec)
    from workloads import PLANS
    if args.workload not in PLANS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(PLANS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.profile == "smoke")
    report = out["report"]
    report["machine"] = machine_block(args.seed)
    report["run_wall_s"] = time.perf_counter() - started
    report_path = OUT_DIR / (f"report-{args.profile}-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    report_path.write_text(json.dumps({**report, "metrics": out["metrics"]}, indent=2),
                           encoding="utf-8")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()}
    for k, m in metrics.items():
        print(f"{k:45s} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
