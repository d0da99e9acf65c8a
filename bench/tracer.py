"""Opt-in tracing of ncspectral layers from outside the package.

`Tracer.install()` wraps the public functions of the library in place and
`Tracer.uninstall()` restores them, so an untraced pass runs the unmodified
code.  Functions are rebound at every ncspectral module that imported them by
name (for example `ncspectral.action.poly_mul`), methods are patched on their
classes, and `numpy.linalg.eigvalsh` and `scipy.sparse.linalg.expm_multiply`
are wrapped at the kernel boundary.

Every wrapped call adds to a per-name `Stat` (count, inclusive time, self
time).  Self time is inclusive time minus the time of wrapped calls made
inside it, so the self times of all frames plus the gaps between tasks add up
to the traced wall time.  Task-level and layer-boundary calls also record a
span (name, start, end, parent, task id); the hot inner calls listed in
`_AGGREGATED` record only the aggregate, because a span per call would
measure the tracer.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter

# public functions, (module, name): metric prefix
_FUNCTIONS = {
    ("weyl", "multiply"): "weyl.multiply",
    ("operators", "assemble_dense"): "operators.assemble_dense",
    ("action", "spectral_action"): "action.spectral_action",
    ("action", "heat_trace"): "action.heat_trace",
    ("action", "twisted_heat_trace"): "action.twisted_heat_trace",
    ("action", "fit_expansion"): "action.fit_expansion",
    ("action", "nc_integral_power"): "action.nc_integral_power",
    ("polynomials", "poly_mul"): "polynomials.poly_mul",
    ("zeta", "theta_sum"): "zeta.theta_sum",
    ("zeta", "poisson_dual"): "zeta.poisson_dual",
    ("zeta", "evaluate"): "zeta.evaluate",
    ("zeta", "sphere_integral"): "zeta.sphere_integral",
    ("incgamma", "upper_gamma"): "incgamma.upper_gamma",
    ("diophantine", "bv_search"): "diophantine.bv_search",
    ("diophantine", "classify_matrix"): "diophantine.classify_matrix",
    ("diophantine", "jarnik_construct"): "diophantine.jarnik_construct",
    ("cli", "main"): "cli.main",
}
# methods patched on their class, (module, class, name): metric prefix
_METHODS = {
    ("weyl", "DeformationMatrix", "bilinear"): "weyl.bilinear",
    ("operators", "ModeMap", "apply_basis"): "operators.apply_basis",
    ("operators", "ModeMap", "max_deviation"): "operators.max_deviation",
}
_AGGREGATED = {"weyl.bilinear", "operators.apply_basis", "incgamma.upper_gamma",
               "polynomials.poly_mul", "zeta.sphere_integral", "weyl.multiply"}
_MODULES = ("weyl", "clifford", "operators", "zeta", "incgamma", "polynomials",
            "diophantine", "action", "cli")


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}   # exact counts and computed sizes
        self.maxima: dict[str, float] = {}
        self.spans: list[list] = []
        self.task_info: dict[int, dict] = {}  # per task: eigvalsh dims, paths
        self._child = 0.0                     # wrapped time inside the open frame
        self._stack: list[int] = []           # open span ids
        self._eig_sinks: list[list] = []
        self._task: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.useful = [0, 0]                  # eigenvalues with weight, computed

    # -- bookkeeping -------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _task_note(self, key: str, value) -> None:
        if self._task is not None:
            self.task_info.setdefault(self._task, {}).setdefault(key, []).append(value)

    def frame(self, name: str, fn, args, kwargs, span: bool):
        """Call fn, charging its time to `name` and to the enclosing frame."""
        st = self._stat(name)
        outer_child = self._child
        self._child = 0.0
        sid = None
        if span:
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                               self._task])
            self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            st.calls += 1
            st.s += dur
            st.self_s += dur - self._child
            self._child = outer_child + dur
            if span:
                self._stack.pop()
                rec = self.spans[sid]
                rec[1] = t0
                rec[2] = t1

    def task(self, tid: int, kind: str, fn):
        """Run one task as a root span; returns fn()."""
        self._task = tid
        self.task_info.setdefault(tid, {})
        try:
            return self.frame("task." + kind, fn, (), {}, True)
        finally:
            self._task = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        span = name not in _AGGREGATED
        after = _AFTER.get(name)
        frame = self.frame

        if after is None:
            def wrapper(*args, **kwargs):
                return frame(name, fn, args, kwargs, span)
        else:
            def wrapper(*args, **kwargs):
                if name in _EIG_OWNERS:
                    self._eig_sinks.append([])
                try:
                    out = frame(name, fn, args, kwargs, span)
                finally:
                    eigs = self._eig_sinks.pop() if name in _EIG_OWNERS else None
                after(self, out, args, kwargs, eigs)
                return out
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        import scipy.sparse.linalg

        mods = {m: importlib.import_module("ncspectral." + m) for m in _MODULES}
        for (mod, attr), name in _FUNCTIONS.items():
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(name, orig)
            for m in mods.values():
                if m.__dict__.get(attr) is orig:
                    self._patch(m, attr, wrapped)
        for (mod, cls, attr), name in _METHODS.items():
            klass = getattr(mods[mod], cls)
            self._patch(klass, attr, self._wrap(name, klass.__dict__[attr]))
        self._patch(np.linalg, "eigvalsh", self._wrap("action.eigvalsh", np.linalg.eigvalsh))
        self._patch(scipy.sparse.linalg, "expm_multiply",
                    self._wrap("action.expm_multiply", scipy.sparse.linalg.expm_multiply))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")


# -- per-layer extras, read from arguments and results ------------------------

_EIG_OWNERS = {"action.spectral_action", "action.heat_trace"}


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _after_path(tr: Tracer, out, args, kwargs, eigs) -> None:
    tr.count("action.path." + out.method)
    tr._task_note("paths", out.method)


def _after_action(tr: Tracer, out, args, kwargs, eigs) -> None:
    _after_path(tr, out, args, kwargs, eigs)
    if eigs:
        profile, lam = _arg(args, kwargs, 0, "profile"), _arg(args, kwargs, 1, "lam")
        vals = np.concatenate(eigs)
        w = np.array([profile(x) for x in np.abs(vals) / lam])
        _useful(tr, w)


def _after_heat(tr: Tracer, out, args, kwargs, eigs) -> None:
    _after_path(tr, out, args, kwargs, eigs)
    if eigs:
        t = _arg(args, kwargs, 1, "t")
        vals = np.concatenate(eigs)
        _useful(tr, np.exp(-t * vals ** 2))


def _useful(tr: Tracer, weights: np.ndarray) -> None:
    top = float(np.max(weights)) if weights.size else 0.0
    tr.useful[0] += int(np.count_nonzero(weights > 1e-16 * top))
    tr.useful[1] += int(weights.size)


def _after_eigvalsh(tr: Tracer, out, args, kwargs, eigs) -> None:
    mat = args[0]
    dim = mat.shape[-1]
    complex_ = np.iscomplexobj(mat)
    # Householder tridiagonal reduction dominates: 4/3 N^3 real, 4x for complex
    tr.count("action.eigvalsh.gflop_computed", (16.0 if complex_ else 4.0) / 3.0 * dim ** 3 / 1e9)
    tr.count("action.eigvalsh.mb_computed", mat.nbytes / 1e6)
    tr.maximum("action.eigvalsh.dim_max", dim)
    tr._task_note("eig_dims", dim)
    if tr._eig_sinks:
        tr._eig_sinks[-1].append(np.asarray(out))


def _after_assemble(tr: Tracer, out, args, kwargs, eigs) -> None:
    tr.maximum("operators.assemble_dense.basis_max", out.shape[0])
    tr._task_note("assembled", out.shape[0])


def _after_max_deviation(tr: Tracer, out, args, kwargs, eigs) -> None:
    window = _arg(args, kwargs, 2, "window")
    tr.count("operators.max_deviation.basis_inputs", window.basis_size)
    tr._task_note("deviation_basis", window.basis_size)


def _after_bv_search(tr: Tracer, out, args, kwargs, eigs) -> None:
    dim = len(args[0])
    qmax = int(_arg(args, kwargs, 3, "qmax"))
    if dim == 1:
        vectors = qmax
    elif dim == 2:
        vectors = ((2 * qmax + 1) ** 2 - 1) // 2
    else:
        vectors = int(_arg(args, kwargs, 5, "sample_budget", 200_000))
    tr.count("diophantine.bv_search.vectors_computed", vectors)


def _after_classify(tr: Tracer, out, args, kwargs, eigs) -> None:
    tr.count("diophantine.classify_matrix.attempts", out.attempts)


def _after_cli(tr: Tracer, out, args, kwargs, eigs) -> None:
    if out != 0:
        tr.count("cli.main.nonzero_exits")
    tr._task_note("exit", out)


_AFTER = {
    "action.spectral_action": _after_action,
    "action.heat_trace": _after_heat,
    "action.twisted_heat_trace": _after_path,
    "action.eigvalsh": _after_eigvalsh,
    "operators.assemble_dense": _after_assemble,
    "operators.max_deviation": _after_max_deviation,
    "diophantine.bv_search": _after_bv_search,
    "diophantine.classify_matrix": _after_classify,
    "cli.main": _after_cli,
}
