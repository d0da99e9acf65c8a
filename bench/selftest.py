"""Self-test of the benchmark: seed invariance and tracing transparency.

    python3 bench/selftest.py
    python3 -m pytest bench/selftest.py

For every workload it runs one untraced and three traced passes (about two
minutes on two cores) and asserts that
- two seeds give the same task count, task kinds, per-task eigensolve
  dimensions, assembled window sizes, compared bases, paths and exit codes;
- traced and untraced passes of one seed give bit-identical task outputs;
- the exact counts repeat between two traced passes of one seed;
- self times plus the untraced gaps account for the traced wall time;
and that a traced run reports every per-layer metric of BENCHMARK.json,
including `trace.overhead_frac`, with the layer counts where the workload
design puts them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

import numpy as np  # noqa: E402

SEEDS = (1, 2)
EXACT_SUFFIXES = (".calls", ".basis_inputs", ".basis_max", "_computed", ".dim_max",
                  ".attempts", ".nonzero_exits")


def _traced(tasks, tracer_mod):
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        return run.Pass(tasks, tr), tr
    finally:
        tr.uninstall()


def _exact_counts(tr) -> dict:
    out = {f"{name}.calls": st.calls for name, st in tr.stats.items()}
    out.update(tr.counts)
    out.update(tr.maxima)
    return {k: v for k, v in out.items()
            if k.startswith("action.path.") or k.endswith(EXACT_SUFFIXES)}


def check_workload(name: str) -> None:
    setups = [run.Setup(name, seed) for seed in SEEDS]
    try:
        tasks_a, tasks_b = setups[0].tasks, setups[1].tasks
        tracer_mod = setups[0].tracer
        assert [t.kind for t in tasks_a] == [t.kind for t in tasks_b], "task lists differ"

        plain = run.Pass(tasks_a)
        traced, tr1 = _traced(tasks_a, tracer_mod)
        again, tr2 = _traced(tasks_a, tracer_mod)
        other, tr3 = _traced(tasks_b, tracer_mod)
        for p in (plain, traced, again, other):
            assert not p.failures, f"{name}: failed tasks {p.failures[:3]}"

        assert plain.outputs == traced.outputs, f"{name}: tracing changed an output"
        assert _exact_counts(tr1) == _exact_counts(tr2), f"{name}: counts do not repeat"
        assert tr1.task_info == tr3.task_info, f"{name}: per-task structure depends on the seed"
        assert {k: v for k, v in _exact_counts(tr1).items() if k.startswith("action.path.")} == \
            {k: v for k, v in _exact_counts(tr3).items() if k.startswith("action.path.")}

        self_sum, gaps = run.accounting(tr1, traced.wall)
        assert abs(self_sum + gaps - traced.wall) <= 1e-6 * traced.wall, \
            f"{name}: self {self_sum} + gaps {gaps} != wall {traced.wall}"
        assert 0 <= gaps <= 0.05 * traced.wall, f"{name}: untraced gaps {gaps} too large"
        print(f"ok {name}: {len(tasks_a)} tasks, {len(tr1.spans)} spans, "
              f"untraced {plain.wall:.2f} s, traced {traced.wall:.2f} s")
    finally:
        for s in setups:
            s.close()


def check_reported_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    values = {}
    for name in run.WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", name,
                               "--seed", "3", "--seconds", "1", "--trace", "1"],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == run.PER_LAYER
        values[name] = {k: v["value"] for k, v in res["metrics"].items()}
    ident, spec_, anal = values["identities"], values["spectra"], values["analytic"]
    assert ident["action.eigvalsh.calls"] == 0 == anal["action.eigvalsh.calls"]
    assert spec_["action.eigvalsh.calls"] > 0
    assert ident["operators.max_deviation.calls"] > 0
    assert spec_["operators.max_deviation.calls"] == 0 == anal["operators.max_deviation.calls"]
    assert spec_["operators.apply_basis.calls"] > 0 == ident["operators.apply_basis.calls"]
    assert anal["cli.main.calls"] > 0 == spec_["cli.main.calls"] == ident["cli.main.calls"]
    assert anal["zeta.evaluate.calls"] > 0 and anal["polynomials.poly_mul.calls"] > 0
    assert spec_["action.path.hutchinson"] == 1 and spec_["action.expm_multiply.calls"] > 0
    for v in values.values():
        assert np.isfinite(v["trace.overhead_frac"])
    print("ok reported metrics")


def test_identities():
    check_workload("identities")


def test_spectra():
    check_workload("spectra")


def test_analytic():
    check_workload("analytic")


def test_reported_metrics():
    check_reported_metrics()


if __name__ == "__main__":
    for name in run.WORKLOAD_NAMES:
        check_workload(name)
    check_reported_metrics()
