"""Command-line front end: every experiment as a reproducible run.

Subcommands: zeta {eval,residue}, dio {classify,construct},
action {fit,constant-term,heat,correction}, op {check}; `_COMMANDS` is the
one table of them.  Each run resolves a config (JSON file plus flag
overrides, validated together), writes results.csv and summary.json into
<out>/<group>-<sub>, and exits 0 on success, 2 when a precondition fails
during the computation, 3 on tolerance failure, 64 on an unknown subcommand
and 65 on a malformed input (flag, config key or value).  Identical config
and seed give byte-identical CSV output; floats are printed with 17
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .action import (
    CutoffProfile,
    MomentError,
    constant_term,
    correction_scaling,
    fit_expansion,
    heat_trace,
    tau_F_squared,
)
from .clifford import build_gamma
from .diophantine import (
    classify_matrix,
    exp_profile,
    golden_ratio,
    jarnik_construct,
    power_log_profile,
    power_profile,
)
from .operators import (ModeWindow, OneForm, WindowError, conjugate_by_Vu, covariant_dirac,
                        gauge_transform, pure_gauge_check, square_expansion_check)
from .polynomials import format_poly, parse_poly, poly_degree
from .weyl import DeformationMatrix, FourierElement
from .zeta import (
    PoleEvaluationError,
    TwistedSeries,
    evaluate,
    residue_shifted,
    vol_sphere,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_TOLERANCE = 3
EXIT_UNKNOWN = 64
EXIT_CONFIG = 65

# global flags, accepted before or after the subcommand: flag -> (config key
# it sets, value type); --config names the JSON file the other keys come from
_GLOBAL_FLAGS = {
    "--config": (None, str),
    "--out": ("out_dir", str),
    "--seed": ("seed", int),
    "--n": ("n", int),
    "--theta": ("theta_preset", str),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved run configuration; round-trips through JSON."""

    n: int = 2
    theta_preset: str = "golden"        # golden | rational | jarnik | zero | matrix
    theta_params: dict = field(default_factory=dict)
    one_form: list = field(default_factory=list)  # [axis, [k...], re, im]
    profile: str = "gaussian"
    profile_params: dict = field(default_factory=dict)
    lam_grid: list = field(default_factory=lambda: [6.0, 7.3, 9.0, 11.0, 13.5, 16.4, 20.0, 24.0])
    t_grid: list = field(default_factory=lambda: list(np.logspace(-4, -1, 13)))
    qmax: int = 1000
    delta: float = 1.0
    c_bound: float = 0.1
    tolerance: float = 1e-13
    window_K: int | None = None
    seed: int = 0
    out_dir: str = "runs"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        defaults = vars(cls())
        unknown = set(data) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _conforms(value, defaults[key]):
                raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
        cfg = cls(**data)
        if cfg.n < 1:
            raise ConfigError("n must be >= 1")
        return cfg


def _conforms(value, default) -> bool:
    """Whether a config value has the type of its field's default.

    An int stands for a float, list entries follow the default's first
    entry, and a field that defaults to None (window_K) takes None or an int.
    """
    if default is None:
        return value is None or _conforms(value, 0)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, list) and default:
        return isinstance(value, list) and all(_conforms(v, default[0]) for v in value)
    return type(value) is type(default)


def build_theta(cfg: RunConfig) -> DeformationMatrix:
    """Deformation matrix from a preset name and parameters."""
    name, params, n = cfg.theta_preset, cfg.theta_params, cfg.n
    try:
        if name == "zero":
            theta = DeformationMatrix.zero(n)
        elif name == "matrix":
            theta = DeformationMatrix(np.array(params["matrix"], dtype=float))
        elif name == "golden":
            g = float(golden_ratio(50)) - 1.0  # (sqrt 5 - 1)/2
            theta = DeformationMatrix.standard_block(
                n, 2.0 * math.pi * g * params.get("scale", 1.0))
        elif name == "rational":
            p = int(params.get("p", 1))
            q = int(params.get("q", 2))
            theta = DeformationMatrix.standard_block(n, 2.0 * math.pi * p / q)
        elif name == "jarnik":
            prof = _approximation_profile(params.get("f", {"kind": "power", "alpha": 4}))
            res = jarnik_construct(prof, depth=int(params.get("depth", 5)))
            theta = DeformationMatrix.standard_block(n, 2.0 * math.pi * res.value)
        else:
            raise ValueError("unknown preset; expected zero, matrix, golden, rational or jarnik")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"theta {name}: {exc}") from None
    if theta.n != n:
        raise ConfigError(f"theta matrix is {theta.n} x {theta.n}, expected {n} x {n}")
    return theta


def _approximation_profile(spec):
    """Approximation profile from a dict or JSON text such as {"kind": "power", "alpha": 3}."""
    try:
        if isinstance(spec, str):
            spec = json.loads(spec)
        kind = spec.get("kind", "power")
        if kind == "power":
            return power_profile(float(spec.get("alpha", 3)))
        if kind == "exp":
            return exp_profile()
        if kind == "power-log":
            return power_log_profile(float(spec.get("beta", 1.0)))
    except (AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"approximation profile: {exc}") from None
    raise ConfigError(f"unknown approximation profile {kind!r}")


def build_one_form(cfg: RunConfig) -> OneForm:
    """One-form from [axis, [k...], re, im] entries; no entries give the zero form."""
    try:
        terms = [(int(axis), tuple(int(x) for x in k), complex(float(re_part), float(im_part)))
                 for axis, k, re_part, im_part in cfg.one_form]
        return OneForm.from_terms(cfg.n, terms) if terms else OneForm.zero(cfg.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"one_form: {exc}") from None


def build_profile(cfg: RunConfig) -> CutoffProfile:
    """Cutoff profile from its preset name and parameters."""
    try:
        return CutoffProfile.preset(cfg.profile, **cfg.profile_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"profile: {exc}") from None


def _parse_series(n: int, P: str, twist: str | None = None):
    """(polynomial, series) from the --P text and the --twist JSON list."""
    try:
        poly = parse_poly(P, n)
        a = tuple(float(x) for x in json.loads(twist)) if twist else None
        return poly, TwistedSeries(n, poly, a)
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"--P/--twist: {exc}") from None


def _fmt(x) -> str:
    if isinstance(x, complex):
        raise TypeError("format real and imaginary parts separately")
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _run_dir(cfg: RunConfig, args) -> Path:
    return Path(cfg.out_dir) / f"{args.group}-{args.sub}"


def _write_outputs(out_dir: Path, rows: list[dict], summary: dict, cfg: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", newline="") as fh:
        if rows:  # no rows give an empty file
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
    summary_full = {"artifact_version": __version__, "config": cfg.to_dict(), **summary}
    (out_dir / "summary.json").write_text(
        json.dumps(summary_full, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (rows, summary, exit code) and
# raises ConfigError on malformed input, ValueError on a failed precondition

_Outcome = tuple[list[dict], dict, int]


def _cmd_zeta_eval(cfg: RunConfig, args) -> _Outcome:
    poly, series = _parse_series(cfg.n, args.P, args.twist)
    s = complex(args.s_re, args.s_im)
    res = evaluate(series, s)
    row = {
        "n": cfg.n, "P": format_poly(poly), "a": json.dumps(list(series.twist)),
        "s_re": s.real, "s_im": s.imag,
        "value_re": res.value.real, "value_im": res.value.imag,
        "est_error": res.est_error,
    }
    print(f"f_a({s}) = {res.value} (est error {res.est_error:.2e})")
    return [row], {"value": res.value, "est_error": res.est_error, "method": res.method}, EXIT_OK


def _cmd_zeta_residue(cfg: RunConfig, args) -> _Outcome:
    poly, _ = _parse_series(cfg.n, args.P)
    shift = float(args.shift) if args.shift is not None else float(cfg.n + poly_degree(poly))
    res = residue_shifted(cfg.n, poly, shift)
    row = {
        "n": cfg.n, "P": format_poly(poly), "shift": shift,
        "residue_re": res.value.real, "residue_im": res.value.imag,
        "pole_s": res.pole, "pole_at_zero": res.pole_at_zero,
        "flags": ";".join(res.flags),
    }
    loc = "" if res.pole_at_zero else f" (pole at s = {res.pole:g})"
    print(f"Res sum P(k)|k|^-(s+{shift:g}) = {res.value.real:.12g}{loc}")
    return [row], {"residue": res.value, "pole_s": res.pole, "flags": list(res.flags)}, EXIT_OK


def _cmd_dio_classify(cfg: RunConfig, args) -> _Outcome:
    theta = build_theta(cfg)
    rep = classify_matrix(theta, cfg.delta, cfg.c_bound, cfg.qmax,
                          u_bound=args.u_bound)
    witnesses = rep.report.witnesses if rep.report is not None else ()
    rows = [{"q": json.dumps(list(q)), "m": mm, "dist": dist, "bound": bound}
            for q, mm, dist, bound in witnesses]
    print(f"verdict: {rep.verdict}" + (f" with u = {rep.u}" if rep.u else ""))
    return rows, {"verdict": rep.verdict, "u": list(rep.u) if rep.u else None,
                  "attempts": rep.attempts, "witnesses": [list(w) for w in witnesses]}, EXIT_OK


def _cmd_dio_construct(cfg: RunConfig, args) -> _Outcome:
    prof = _approximation_profile(args.f or {"kind": "power", "alpha": 3})
    res = jarnik_construct(prof, depth=args.depth)
    rows = [{
        "depth": c.depth, "q": c.q,
        "gap_bound": float(c.gap_bound), "target": float(c.target), "ok": c.ok,
    } for c in res.certificates]
    all_ok = all(c.ok for c in res.certificates)
    print(f"constructed value ~ {res.value!r}, certificates "
          f"{'all valid' if all_ok else 'FAILED'} to depth {len(res.certificates)}")
    return rows, {"value": res.value, "quotients": res.cf.quotients[:12],
                  "certificates_ok": all_ok}, EXIT_OK if all_ok else EXIT_TOLERANCE


def _cmd_action_fit(cfg: RunConfig, args) -> _Outcome:
    theta = build_theta(cfg)
    A = build_one_form(cfg)
    fit = fit_expansion(build_profile(cfg), cfg.lam_grid, cfg.n, theta=theta,
                        A=None if A.is_zero() else A)
    rows = [{"parameter": f"c{k}", "value": fit.coeffs[k], "uncertainty": fit.sigmas[k]}
            for k in sorted(fit.coeffs, reverse=True)]
    rows.append({"parameter": "guard_1_over_lam", "value": fit.guard_coeff, "uncertainty": 0.0})
    rows.append({"parameter": "residual", "value": fit.residual, "uncertainty": 0.0})
    for k in sorted(fit.coeffs, reverse=True):
        print(f"c_{k} = {fit.coeffs[k]:.10g} +- {fit.sigmas[k]:.2g}")
    print(f"fit residual {fit.residual:.3e}, conditioning {fit.cond:.3e}")
    leading_ref = (2 ** (cfg.n // 2)) * vol_sphere(cfg.n)
    return rows, {"coeffs": {str(k): v for k, v in fit.coeffs.items()},
                  "sigmas": {str(k): v for k, v in fit.sigmas.items()},
                  "residual": fit.residual, "cond": fit.cond,
                  "leading_reference": leading_ref,
                  "leading_rel_err": abs(fit.coeffs[cfg.n] - leading_ref) / leading_ref}, EXIT_OK


def _cmd_action_constant_term(cfg: RunConfig, args) -> _Outcome:
    theta = build_theta(cfg)
    A = build_one_form(cfg)
    if A.is_zero():
        raise ValueError("constant term needs a nonzero one-form")
    ct = constant_term(A, theta)
    tau_ff = tau_F_squared(A, theta)
    target = -(4.0 * math.pi ** 2 / 3.0) * tau_ff
    rows = [{"parameter": f"integral_q{q}", "value": v.real, "uncertainty": abs(v.imag)}
            for q, v in sorted(ct.per_q.items())]
    rows.append({"parameter": "constant_term", "value": ct.value.real,
                 "uncertainty": abs(ct.value.imag)})
    rows.append({"parameter": "gauge_curvature_target", "value": target.real,
                 "uncertainty": abs(target.imag)})
    print(f"constant term = {ct.value.real:.10g}")
    if cfg.n == 4:
        print(f"-(4 pi^2 / 3) tau(F.F) = {target.real:.10g}")
    if not theta.theta.any():
        print("Theta = 0: left and right actions agree, so D_A = D and the constant term is 0")
    return rows, {"constant_term": ct.value, "per_q": {str(k): v for k, v in ct.per_q.items()},
                  "tau_FF": tau_ff, "target_n4": target}, EXIT_OK


def _cmd_action_heat(cfg: RunConfig, args) -> _Outcome:
    theta = build_theta(cfg)
    A = build_one_form(cfg)
    rows = []
    for t in cfg.t_grid:
        hs = heat_trace(cfg.n, float(t), theta=theta, A=None if A.is_zero() else A,
                        window_K=cfg.window_K)
        val = hs.value if isinstance(hs.value, float) else hs.value.real
        rows.append({"t": float(t), "value": float(val), "tail_bound": hs.tail_bound,
                     "method": hs.method})
    print(f"heat trace sampled on {len(rows)} t values "
          f"(t in [{min(cfg.t_grid):g}, {max(cfg.t_grid):g}])")
    return rows, {"samples": len(rows)}, EXIT_OK


def _cmd_action_correction(cfg: RunConfig, args) -> _Outcome:
    n = cfg.n
    if n != 2:
        raise ValueError("correction scan is a dimension-2 experiment")
    support = [(1, 0), (2, 0), (11, 0)]
    a = FourierElement(n, {tuple(k): abs(k[0]) ** -1.5 for k in support})
    b = FourierElement(n, {tuple(-x for x in k): abs(k[0]) ** -1.5 for k in support})
    family = [(label, build_theta(RunConfig(n=n, theta_preset=label)), a, b)
              for label in ("rational", "golden", "jarnik")]
    reports = correction_scaling(family, cfg.t_grid)
    rows = [{"theta": r.label, "slope": r.slope if r.slope is not None else float("nan"),
             "stderr": r.stderr if r.stderr is not None else float("nan"),
             "points_used": r.points_used, "flag": r.flag} for r in reports]
    for r in reports:
        desc = f"slope {r.slope:.3f}" if r.slope is not None else "exponentially small"
        print(f"{r.label}: {desc} ({r.points_used} points)")
    return rows, {"reports": [dataclasses.asdict(r) for r in reports]}, EXIT_OK


def _cmd_op_check(cfg: RunConfig, args) -> _Outcome:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    n = cfg.n
    theta = build_theta(cfg)
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    rows = []

    if args.dump_gammas:
        gs = build_gamma(n)
        out_dir = _run_dir(cfg, args)
        out_dir.mkdir(parents=True, exist_ok=True)

        def pairs(m):  # a complex matrix as [re, im] entries
            return [[[z.real, z.imag] for z in row] for row in m]

        payload = {"n": n, "gammas": [pairs(g) for g in gs.gammas], "epsilon": gs.epsilon,
                   "c0": pairs(gs.c0)}
        (out_dir / "gammas.json").write_text(json.dumps(payload) + "\n")

    def record(name: str, deviations) -> None:
        dev = functools.reduce(max, deviations, 0.0)
        rows.append({"check": name, "deviation": dev, "tolerance": tol, "ok": dev <= tol})
        print(f"{'ok ' if dev <= tol else 'FAIL'} {name}: {dev:.3e}")

    def random_one_form() -> OneForm:
        terms = []
        for _ in range(2):
            axis = int(rng.integers(1, n + 1))
            k = tuple(int(x) for x in rng.integers(-1, 2, size=n))
            if not any(k):
                k = (1,) + (0,) * (n - 1)
            z = complex(rng.normal(), rng.normal()) * 0.5
            terms.append((axis, k, z))
        return OneForm.from_terms(n, terms)

    def conjugation_gap() -> float:
        A = random_one_form()
        u = FourierElement.unit(n, tuple(int(x) for x in rng.integers(-2, 3, size=n)))
        lhs = conjugate_by_Vu(covariant_dirac(A, theta), u, theta)
        return lhs.max_deviation(covariant_dirac(gauge_transform(u, A, theta), theta), window)

    # pure-gauge identity on a box of mode labels
    labels = (tuple(int(x) - 3 for x in k) for k in np.ndindex(*(7,) * n))
    record("pure-gauge |k|<=3", (pure_gauge_check(k, n, theta, window_K=2) for k in labels))
    # covariance: conjugating the flat operator by a basis gauge unitary
    D0 = covariant_dirac(OneForm.zero(n), theta)
    window = ModeWindow(n, 2, spinor_dim=2 ** (n // 2))
    record("covariance", (conjugate_by_Vu(D0, FourierElement.unit(n, k), theta).max_deviation(
        D0, window) for k in [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), (1,) * n]))
    record(f"gauge-conjugation x{args.samples}", (conjugation_gap() for _ in range(args.samples)))
    squares = max(args.samples // 2, 3)
    record(f"square-expansion x{squares}",
           (square_expansion_check(random_one_form(), theta, window_K=2) for _ in range(squares)))

    ok = all(r["ok"] for r in rows)
    worst = max(r["deviation"] for r in rows)
    return rows, {"worst_deviation": worst, "all_ok": ok}, EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument plumbing

# group -> sub -> (handler, leaf flags with their argparse keywords)
_COMMANDS = {
    "zeta": {
        "eval": (_cmd_zeta_eval, {
            "--P": {"required": True, "help": "numerator polynomial, e.g. k1^2*k2^2"},
            "--s-re": {"type": float, "default": 0.0},
            "--s-im": {"type": float, "default": 0.0},
            "--twist": {"help": "JSON list twist vector"}}),
        "residue": (_cmd_zeta_residue, {"--P": {"required": True}, "--shift": {"type": float}}),
    },
    "dio": {
        "classify": (_cmd_dio_classify, {"--u-bound": {"type": int, "default": 3}}),
        "construct": (_cmd_dio_construct, {
            "--f": {"help": 'profile JSON, e.g. {"kind": "power", "alpha": 3}'},
            "--depth": {"type": int, "default": 6}}),
    },
    "action": {"fit": (_cmd_action_fit, {}), "constant-term": (_cmd_action_constant_term, {}),
               "heat": (_cmd_action_heat, {}), "correction": (_cmd_action_correction, {})},
    "op": {"check": (_cmd_op_check, {
        "--samples": {"type": int, "default": 20},
        "--dump-gammas": {"action": "store_true",
                          "help": "also write the gamma matrices as JSON arrays"}})},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # global flags may appear before or after the subcommand; SUPPRESS keeps
    # leaf defaults from clobbering values parsed at the top level.  Built once
    # per process from the constant tables: parse_args leaves the parser as it
    # was and returns a fresh Namespace
    common = argparse.ArgumentParser(add_help=False)
    for flag, (key, kind) in _GLOBAL_FLAGS.items():
        common.add_argument(flag, dest=key or "config", type=kind, default=argparse.SUPPRESS,
                            help="JSON config file" if key is None else f"sets config key {key}")

    parser = argparse.ArgumentParser(prog="ncspectral", parents=[common],
                                     exit_on_error=False)
    groups = parser.add_subparsers(dest="group")
    for group, subs in _COMMANDS.items():
        leaves = groups.add_parser(group, exit_on_error=False).add_subparsers(dest="sub")
        for sub, (_, flags) in subs.items():
            leaf = leaves.add_parser(sub, parents=[common], exit_on_error=False)
            for flag, kwargs in flags.items():
                leaf.add_argument(flag, **kwargs)
    return parser


def _resolve_config(args) -> RunConfig:
    """The config file's keys with the global flags' overrides, validated together."""
    data: dict = {}
    if getattr(args, "config", None):
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(str(exc)) from None
        if not data or not isinstance(data, dict):
            raise ConfigError("the config must be a nonempty JSON object")
    data.update({key: getattr(args, key) for key, _ in _GLOBAL_FLAGS.values()
                 if key is not None and hasattr(args, key)})
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: ncspectral [--config FILE] GROUP SUBCOMMAND [flags]\n"
              f"groups: {', '.join(_COMMANDS)}", file=sys.stderr)
        return EXIT_CONFIG

    # validate group/sub before argparse so unknown subcommands exit 64; the
    # value of a global flag placed before the group is not a positional, and
    # --help may stand in for a missing group or sub
    positional = [a for i, a in enumerate(argv) if not a.startswith("-")
                  and (i == 0 or argv[i - 1] not in _GLOBAL_FLAGS)]
    table = _COMMANDS
    for name in (positional + [None, None])[:2]:
        if name is None and ("-h" in argv or "--help" in argv):
            break
        if name not in table:
            print(f"unknown subcommand {name!r}; expected one of {list(table)}", file=sys.stderr)
            return EXIT_UNKNOWN
        table = table[name]

    try:
        args = _build_parser().parse_args(argv)
    except (argparse.ArgumentError, SystemExit) as exc:
        if getattr(exc, "code", None) == 0:  # argparse exits 0 after printing --help
            return EXIT_OK
        print("malformed arguments", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = _resolve_config(args)
        rows, summary, code = _COMMANDS[args.group][args.sub][0](cfg, args)
    except ConfigError as exc:
        print(f"malformed config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PoleEvaluationError, MomentError, WindowError, MemoryError, ValueError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _write_outputs(_run_dir(cfg, args), rows, summary, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
