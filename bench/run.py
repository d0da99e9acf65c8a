"""Benchmark of ncspectral: seeded workloads timed end to end and per layer.

    python3 bench/run.py --workload identities --seed 1 --seconds 30 --trace 0

The package is imported from `src/` next to the benchmark's directory.
`--workload all` runs every workload, each in its own process.

With `--trace 0` the workload's task list is run in passes for about
`--seconds` (at least `MIN_PASSES`), every task's output is checked, and the
end-to-end metrics are printed.  With `--trace 1` two untraced passes are
followed by traced passes (see `tracer.py`); traced outputs must be
bit-identical to the untraced ones, and the per-layer metrics are printed.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only when every task passed its
check.  Temporary files (CLI artifacts) and spans go under `.bench_out/` in the
checkout.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_THREADS = 1  # fixed on both sides of any comparison; must not exceed nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("identities", "spectra", "analytic")
MIN_PASSES = 2
SETUP_REPEATS = 9   # setup_s is the median of this many full set-ups
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2

END_TO_END = [("wall_s", "s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _layer(prefix: str, *stats: str) -> list[str]:
    return [f"{prefix}.{s}" for s in stats]


PER_LAYER = (
    _layer("weyl.bilinear", "calls", "s")
    + _layer("weyl.multiply", "calls", "s")
    + _layer("operators.max_deviation", "calls", "self_s", "basis_inputs")
    + _layer("operators.apply_basis", "calls", "self_s")
    + _layer("operators.assemble_dense", "calls", "self_s", "basis_max")
    + _layer("action.eigvalsh", "calls", "s", "dim_max", "gflop_computed", "mb_computed")
    + ["action.eig_useful_frac"]
    + _layer("action.expm_multiply", "calls", "s")
    + ["action.spectral_action.self_s", "action.heat_trace.self_s", "action.fit_expansion.s"]
    + _layer("action.path", "chain-window", "dense-window", "hutchinson", "exact-formula",
             "exact-lattice", "twisted-lattice")
    + _layer("action.nc_integral_power", "calls", "self_s")
    + _layer("polynomials.poly_mul", "calls", "s")
    + _layer("zeta.sphere_integral", "calls", "s")
    + _layer("zeta.theta_sum", "calls", "self_s")
    + _layer("zeta.poisson_dual", "calls", "self_s")
    + _layer("zeta.evaluate", "calls", "self_s")
    + _layer("incgamma.upper_gamma", "calls", "s")
    + _layer("diophantine.bv_search", "calls", "self_s", "vectors_computed")
    + ["diophantine.classify_matrix.attempts"]
    + _layer("diophantine.jarnik_construct", "calls", "s")
    + _layer("cli.main", "calls", "self_s", "nonzero_exits")
    + ["setup.import_s", "setup.inputs_s", "trace.overhead_frac"]
)


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its last name component."""
    stat = name.rsplit(".", 1)[1]
    if name == "action.eig_useful_frac":
        return "fraction", "higher"
    if name == "trace.overhead_frac":
        return "fraction", "lower"
    if stat in ("s", "self_s", "import_s", "inputs_s"):
        return "s", "lower"
    if stat == "gflop_computed":
        return "GFLOP", "lower"
    if stat == "mb_computed":
        return "MB", "lower"
    return "count", "lower"


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """Imports, seeded inputs and warm caches for one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        sys.path.insert(0, str(SRC))
        import ncspectral

        if not Path(ncspectral.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"ncspectral imported from {ncspectral.__file__}, not {SRC}")
        import scipy.integrate  # noqa: F401  (imported lazily by the library)
        import scipy.sparse.linalg
        import tracer
        import workloads
        from ncspectral import action, clifford

        self.import_s = time.perf_counter() - _T0
        t0 = time.perf_counter()
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        try:
            ctx = workloads.Context(self.tmp)
            self.tasks = workloads.WORKLOADS[workload](np.random.default_rng(seed), ctx)
        except BaseException:
            self.close()
            raise
        self.inputs_s = time.perf_counter() - t0
        # first-call costs: LAPACK and sparse kernels, gamma matrices, quadrature
        np.linalg.eigvalsh(np.eye(4, dtype=complex))
        scipy.sparse.linalg.expm_multiply(scipy.sparse.identity(4, format="csc"), np.ones(4))
        for n in (1, 2, 3, 4):
            clifford.build_gamma(n)
        action.moments(action.CutoffProfile.gaussian(), 2)
        self.tracer = tracer
        self.setup_s = time.perf_counter() - _T0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus SETUP_REPEATS - 1 fresh-process set-ups."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, tasks, tr=None) -> None:
        self.times: list[float] = []
        self.outputs: list[str] = []
        self.failures: list[tuple[int, str, str]] = []
        start = time.perf_counter()
        for tid, task in enumerate(tasks):
            t0 = time.perf_counter()
            try:
                out = tr.task(tid, task.kind, task.fn) if tr else task.fn()
            except Exception as exc:  # a failed task is counted, the pass goes on
                out = f"error: {exc!r}"
                self.failures.append((tid, task.kind, repr(exc)))
            self.times.append(time.perf_counter() - t0)
            self.outputs.append(repr(out))
        self.wall = time.perf_counter() - start


def run_passes(tasks, seconds: float, make_tracer=None, minimum: int = MIN_PASSES):
    """Run passes while the next one is expected to end within half a pass of
    `seconds`, and at least `minimum`; returns (pass, tracer) pairs."""
    done = []
    start = time.perf_counter()
    while True:
        tr = make_tracer() if make_tracer else None
        if tr:
            tr.install()
        try:
            done.append((Pass(tasks, tr), tr))
        finally:
            if tr:
                tr.uninstall()
        walls = [p.wall for p, _ in done]
        if len(done) >= minimum and \
                time.perf_counter() - start + 0.5 * statistics.median(walls) > seconds:
            return done


def failures(ref: Pass, passes: list[Pass]) -> list[tuple[int, int, str]]:
    """(pass, task, reason) for tasks that raised or whose output differs from ref."""
    out = []
    for j, p in enumerate(passes):
        bad = {tid: why for tid, _, why in p.failures}
        for tid, (a, b) in enumerate(zip(ref.outputs, p.outputs)):
            if a != b and tid not in bad:
                bad[tid] = f"output {b} differs from {a}"
        out += [(j, tid, why) for tid, why in sorted(bad.items())]
    return out


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tr, setup: Setup, traced_wall: float, untraced_wall: float) -> dict:
    out = {}
    for name in PER_LAYER:
        prefix, stat = name.rsplit(".", 1)
        if name == "action.eig_useful_frac":
            useful, computed = tr.useful
            value = useful / computed if computed else 0.0
        elif name == "trace.overhead_frac":
            value = traced_wall / untraced_wall - 1.0
        elif name == "setup.import_s":
            value = setup.import_s
        elif name == "setup.inputs_s":
            value = setup.inputs_s
        elif name in tr.counts or name in tr.maxima:
            value = tr.counts.get(name, tr.maxima.get(name))
        elif stat in ("calls", "s", "self_s"):
            st = tr.stats.get(prefix)
            value = getattr(st, stat) if st else 0
        else:
            value = 0
        out[name] = {"value": value, "unit": layer_unit(name)[0]}
    return out


def accounting(tr, wall: float) -> tuple[float, float]:
    """(sum of self times over all frames, untraced gaps between tasks)."""
    self_sum = sum(st.self_s for st in tr.stats.values())
    in_tasks = sum(st.s for name, st in tr.stats.items() if name.startswith("task."))
    return self_sum, wall - in_tasks


def machine(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    import mpmath
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ncspectral").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "commit": _commit(), "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    setup = Setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup.setup_s}))
            return 0
        tasks = setup.tasks
        print("machine " + json.dumps(machine(args)), flush=True)
        if args.trace:
            # the second untraced pass is the warm reference for the overhead
            refs = [Pass(tasks), Pass(tasks)]
            runs = run_passes(tasks, args.seconds - refs[0].wall - refs[1].wall,
                              setup.tracer.Tracer, minimum=1)
            failed = failures(refs[0], refs + [p for p, _ in runs])
            first, tr = runs[0]
            metrics = layer_metrics(tr, setup, first.wall, refs[1].wall)
            self_sum, gaps = accounting(tr, first.wall)
            print(f"trace: self {self_sum:.4f} s + gaps {gaps:.4f} s, wall {first.wall:.4f} s; "
                  f"{len(tr.spans)} spans", flush=True)
            tr.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            attempted = len(tasks) * (len(refs) + len(runs))
        else:
            runs = run_passes(tasks, args.seconds)
            failed = failures(runs[0][0], [p for p, _ in runs])
            times_ms = np.array([t for p, _ in runs for t in p.times]) * 1e3
            walls = [p.wall for p, _ in runs]
            setups = setup_samples(args, setup.setup_s)
            values = {
                "wall_s": (statistics.median(walls), f"median of {len(walls)} passes"),
                "task_p50_ms": (float(np.percentile(times_ms, 50)),
                                f"{times_ms.size} task samples"),
                "task_p90_ms": (float(np.percentile(times_ms, 90)),
                                f"{times_ms.size} task samples, "
                                f"{int(np.sum(times_ms > np.percentile(times_ms, 90)))} beyond"),
                "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "this process"),
            }
            metrics = {}
            for name, unit in END_TO_END:
                value, note = values[name]
                print(f"metric {name} = {value:.6g} {unit} ({note})")
                metrics[name] = {"value": value, "unit": unit}
            attempted = len(tasks) * len(runs)
        for j, tid, why in failed[:20]:
            print(f"FAILED pass {j} task {tid} ({tasks[tid].kind}): {why}", file=sys.stderr)
        print(f"failed_frac = {len(failed) / attempted:.6g} ({len(failed)} of {attempted} tasks)")
        print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                          "metrics": metrics}), flush=True)
        return EXIT_FAILED if failed else 0
    finally:
        setup.close()


def run_all(args) -> int:
    """Each workload in its own process; prints their reports and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = code or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or EXIT_FAILED
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM


if __name__ == "__main__":
    sys.exit(main())
