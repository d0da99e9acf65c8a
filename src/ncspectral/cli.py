"""Command-line front end: every experiment as a reproducible run.

Subcommands: zeta {eval,residue}, dio {classify,construct},
action {fit,constant-term,heat,correction}, op {check}.  Each run resolves a
config (JSON file plus flag overrides), writes results.csv and summary.json
into the output directory, and exits 0 on success, 2 on precondition failure,
3 on tolerance failure, 64 on an unknown subcommand, 65 on a malformed
config.  Identical config and seed give byte-identical CSV output; floats are
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
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
from .diophantine import (
    classify_matrix,
    exp_profile,
    golden_ratio,
    jarnik_construct,
    power_log_profile,
    power_profile,
)
from .operators import OneForm, WindowError, pure_gauge_check, square_expansion_check
from .polynomials import format_poly, parse_poly, poly_degree
from .weyl import DeformationMatrix, FourierElement
from .zeta import (
    PoleEvaluationError,
    TwistedSeries,
    evaluate,
    residue_shifted,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_TOLERANCE = 3
EXIT_UNKNOWN = 64
EXIT_CONFIG = 65

_SUBCOMMANDS = {
    "zeta": ["eval", "residue"],
    "dio": ["classify", "construct"],
    "action": ["fit", "constant-term", "heat", "correction"],
    "op": ["check"],
}


# flags accepted before or after the subcommand; each takes a value
_GLOBAL_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--out": {"help": "output directory override"},
    "--threads": {"type": int, "help": "recorded in summary.json; runs are single-threaded "
                                       "(env NCSPECTRAL_THREADS)"},
    "--seed": {"type": int},
    "--n": {"type": int, "help": "torus dimension override"},
    "--theta": {"help": "theta preset override"},
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
    kernel_tol: float = 1e-10
    seed: int = 0
    threads: int = 1
    out_dir: str = "runs"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        if cfg.n < 1:
            raise ConfigError("n must be >= 1")
        return cfg


def build_theta(cfg: RunConfig) -> DeformationMatrix:
    """Deformation matrix from a preset name and parameters."""
    name = cfg.theta_preset
    params = cfg.theta_params
    n = cfg.n
    if name == "zero":
        return DeformationMatrix.zero(n)
    if name == "matrix":
        try:
            theta = DeformationMatrix(np.array(params["matrix"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"theta matrix: {exc}") from None
        if theta.n != n:
            raise ConfigError(f"theta matrix is {theta.n} x {theta.n}, expected {n} x {n}")
        return theta
    if name == "golden":
        g = float(golden_ratio(50)) - 1.0  # (sqrt 5 - 1)/2
        return DeformationMatrix.standard_block(n, 2.0 * math.pi * g * params.get("scale", 1.0))
    if name == "rational":
        p = int(params.get("p", 1))
        q = int(params.get("q", 2))
        return DeformationMatrix.standard_block(n, 2.0 * math.pi * p / q)
    if name == "jarnik":
        prof = _build_profile_preset(params.get("f", {"kind": "power", "alpha": 4}))
        res = jarnik_construct(prof, depth=int(params.get("depth", 5)))
        return DeformationMatrix.standard_block(n, 2.0 * math.pi * res.value)
    raise ConfigError(f"unknown theta preset {name!r}")


def _build_profile_preset(spec: dict):
    kind = spec.get("kind", "power")
    if kind == "power":
        return power_profile(float(spec.get("alpha", 3)))
    if kind == "exp":
        return exp_profile()
    if kind == "power-log":
        return power_log_profile(float(spec.get("beta", 1.0)))
    raise ConfigError(f"unknown approximation profile {kind!r}")


def build_one_form(cfg: RunConfig) -> OneForm:
    """One-form from [axis, [k...], re, im] entries; no entries give the zero form."""
    try:
        terms = [(int(axis), tuple(int(x) for x in k), complex(float(re_part), float(im_part)))
                 for axis, k, re_part, im_part in cfg.one_form]
        return OneForm.from_terms(cfg.n, terms) if terms else OneForm.zero(cfg.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"one_form: {exc}") from None


def _parse_poly_flag(text: str, n: int):
    try:
        return parse_poly(text, n)
    except ValueError as exc:
        raise ConfigError(f"--P: {exc}") from None


def _parse_twist_flag(text: str | None, n: int) -> tuple[float, ...]:
    try:
        twist = tuple(float(x) for x in json.loads(text)) if text else (0.0,) * n
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"--twist: {exc}") from None
    if len(twist) != n:
        raise ConfigError(f"--twist has {len(twist)} entries, expected {n}")
    return twist


def _fmt(x) -> str:
    if isinstance(x, complex):
        raise TypeError("format real and imaginary parts separately")
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_outputs(out_dir: Path, rows: list[dict], summary: dict, cfg: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    if rows:
        fields = list(rows[0].keys())
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
    else:
        csv_path.write_text("")
    summary_full = {
        "artifact_version": __version__,
        "config": cfg.to_dict(),
        **summary,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary_full, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_zeta_eval(cfg: RunConfig, args) -> int:
    poly = _parse_poly_flag(args.P, cfg.n)
    twist = _parse_twist_flag(args.twist, cfg.n)
    series = TwistedSeries(cfg.n, poly, twist)
    s = complex(args.s_re, args.s_im)
    try:
        res = evaluate(series, s)
    except PoleEvaluationError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    row = {
        "n": cfg.n, "P": format_poly(poly), "a": json.dumps(list(twist)),
        "s_re": s.real, "s_im": s.imag,
        "value_re": res.value.real, "value_im": res.value.imag,
        "est_error": res.est_error,
    }
    print(f"f_a({s}) = {res.value} (est error {res.est_error:.2e})")
    _write_outputs(Path(cfg.out_dir) / "zeta-eval", [row],
                   {"value": res.value, "est_error": res.est_error, "method": res.method},
                   cfg)
    return EXIT_OK


def _cmd_zeta_residue(cfg: RunConfig, args) -> int:
    poly = _parse_poly_flag(args.P, cfg.n)
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
    _write_outputs(Path(cfg.out_dir) / "zeta-residue", [row],
                   {"residue": res.value, "pole_s": res.pole, "flags": list(res.flags)}, cfg)
    return EXIT_OK


def _cmd_dio_classify(cfg: RunConfig, args) -> int:
    theta = build_theta(cfg)
    rep = classify_matrix(theta, cfg.delta, cfg.c_bound, cfg.qmax,
                          u_bound=args.u_bound)
    rows = []
    if rep.report is not None:
        for q, mm, dist, bound in rep.report.witnesses:
            rows.append({"q": json.dumps(list(q)), "m": mm, "dist": dist, "bound": bound})
    print(f"verdict: {rep.verdict}" + (f" with u = {rep.u}" if rep.u else ""))
    _write_outputs(Path(cfg.out_dir) / "dio-classify", rows,
                   {"verdict": rep.verdict, "u": list(rep.u) if rep.u else None,
                    "attempts": rep.attempts,
                    "witnesses": [list(w) for w in (rep.report.witnesses if rep.report else ())]},
                   cfg)
    return EXIT_OK


def _cmd_dio_construct(cfg: RunConfig, args) -> int:
    prof = _build_profile_preset(json.loads(args.f) if args.f else {"kind": "power", "alpha": 3})
    try:
        res = jarnik_construct(prof, depth=args.depth)
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rows = [{
        "depth": c.depth, "q": c.q,
        "gap_bound": float(c.gap_bound), "target": float(c.target), "ok": c.ok,
    } for c in res.certificates]
    all_ok = all(c.ok for c in res.certificates)
    print(f"constructed value ~ {res.value!r}, certificates "
          f"{'all valid' if all_ok else 'FAILED'} to depth {len(res.certificates)}")
    _write_outputs(Path(cfg.out_dir) / "dio-construct", rows,
                   {"value": res.value, "quotients": res.cf.quotients[:12],
                    "certificates_ok": all_ok}, cfg)
    return EXIT_OK if all_ok else EXIT_TOLERANCE


def _cmd_action_fit(cfg: RunConfig, args) -> int:
    theta = build_theta(cfg)
    A = build_one_form(cfg)
    profile = CutoffProfile.preset(cfg.profile, **cfg.profile_params)
    try:
        fit = fit_expansion(profile, cfg.lam_grid, cfg.n, theta=theta,
                            A=None if A.is_zero() else A)
    except (MomentError, WindowError, ValueError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rows = [{"parameter": f"c{k}", "value": fit.coeffs[k], "uncertainty": fit.sigmas[k]}
            for k in sorted(fit.coeffs, reverse=True)]
    rows.append({"parameter": "guard_1_over_lam", "value": fit.guard_coeff, "uncertainty": 0.0})
    rows.append({"parameter": "residual", "value": fit.residual, "uncertainty": 0.0})
    for k in sorted(fit.coeffs, reverse=True):
        print(f"c_{k} = {fit.coeffs[k]:.10g} +- {fit.sigmas[k]:.2g}")
    print(f"fit residual {fit.residual:.3e}, conditioning {fit.cond:.3e}")
    from .zeta import vol_sphere
    leading_ref = (2 ** (cfg.n // 2)) * vol_sphere(cfg.n)
    _write_outputs(Path(cfg.out_dir) / "action-fit", rows,
                   {"coeffs": {str(k): v for k, v in fit.coeffs.items()},
                    "sigmas": {str(k): v for k, v in fit.sigmas.items()},
                    "residual": fit.residual, "cond": fit.cond,
                    "leading_reference": leading_ref,
                    "leading_rel_err": abs(fit.coeffs[cfg.n] - leading_ref) / leading_ref},
                   cfg)
    return EXIT_OK


def _cmd_action_constant_term(cfg: RunConfig, args) -> int:
    theta = build_theta(cfg)
    A = build_one_form(cfg)
    if A.is_zero():
        print("precondition failure: constant term needs a nonzero one-form",
              file=sys.stderr)
        return EXIT_PRECONDITION
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
    _write_outputs(Path(cfg.out_dir) / "action-constant-term", rows,
                   {"constant_term": ct.value, "per_q": {str(k): v for k, v in ct.per_q.items()},
                    "tau_FF": tau_ff, "target_n4": target}, cfg)
    return EXIT_OK


def _cmd_action_heat(cfg: RunConfig, args) -> int:
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
    _write_outputs(Path(cfg.out_dir) / "action-heat", rows,
                   {"samples": len(rows)}, cfg)
    return EXIT_OK


def _cmd_action_correction(cfg: RunConfig, args) -> int:
    from .diophantine import golden_ratio as _gr

    n = cfg.n
    if n != 2:
        print("precondition failure: correction scan is a dimension-2 experiment",
              file=sys.stderr)
        return EXIT_PRECONDITION
    support = [(1, 0), (2, 0), (11, 0)]
    a = FourierElement(n, {tuple(k): abs(k[0]) ** -1.5 for k in support})
    b = FourierElement(n, {tuple(-x for x in k): abs(k[0]) ** -1.5 for k in support})
    golden = DeformationMatrix.standard_block(n, 2 * math.pi * (float(_gr(50)) - 1.0))
    rational = DeformationMatrix.standard_block(n, 2 * math.pi * 0.5)
    jarnik = build_theta(RunConfig(n=2, theta_preset="jarnik",
                                   theta_params={"f": {"kind": "power", "alpha": 4},
                                                 "depth": 5}))
    family = [("rational", rational, a, b), ("golden", golden, a, b), ("jarnik", jarnik, a, b)]
    reports = correction_scaling(family, cfg.t_grid)
    rows = [{"theta": r.label, "slope": r.slope if r.slope is not None else float("nan"),
             "stderr": r.stderr if r.stderr is not None else float("nan"),
             "points_used": r.points_used, "flag": r.flag} for r in reports]
    for r in reports:
        desc = f"slope {r.slope:.3f}" if r.slope is not None else "exponentially small"
        print(f"{r.label}: {desc} ({r.points_used} points)")
    _write_outputs(Path(cfg.out_dir) / "action-correction", rows,
                   {"reports": [dataclasses.asdict(r) for r in reports]}, cfg)
    return EXIT_OK


def _cmd_op_check(cfg: RunConfig, args) -> int:
    from .clifford import build_gamma
    from .operators import conjugate_by_Vu, covariant_dirac, gauge_transform
    from .operators import ModeWindow as _MW

    n = cfg.n
    theta = build_theta(cfg)
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_overall = 0.0

    if args.dump_gammas:
        gs = build_gamma(n)
        out_dir = Path(cfg.out_dir) / "op-check"
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "n": n,
            "gammas": [[[ [z.real, z.imag] for z in row] for row in g] for g in gs.gammas],
            "epsilon": gs.epsilon,
            "c0": [[[z.real, z.imag] for z in row] for row in gs.c0],
        }
        (out_dir / "gammas.json").write_text(json.dumps(payload) + "\n")

    def record(name: str, dev: float):
        nonlocal worst_overall
        worst_overall = max(worst_overall, dev)
        rows.append({"check": name, "deviation": dev, "tolerance": tol,
                     "ok": dev <= tol})
        print(f"{'ok ' if dev <= tol else 'FAIL'} {name}: {dev:.3e}")

    # pure-gauge identity on a box of mode labels
    worst = 0.0
    for k in np.ndindex(*(7,) * n):
        kk = tuple(int(x) - 3 for x in k)
        worst = max(worst, pure_gauge_check(kk, n, theta, window_K=2))
    record("pure-gauge |k|<=3", worst)

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

    # covariance: conjugating the flat operator by a basis gauge unitary
    D0 = covariant_dirac(OneForm.zero(n), theta)
    window = _MW(n, 2, spinor_dim=2 ** (n // 2))
    worst = 0.0
    for k in [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), (1,) * n]:
        u = FourierElement.unit(n, k)
        worst = max(worst, conjugate_by_Vu(D0, u, theta).max_deviation(D0, window))
    record("covariance", worst)

    worst = 0.0
    for _ in range(args.samples):
        A = random_one_form()
        u = FourierElement.unit(n, tuple(int(x) for x in rng.integers(-2, 3, size=n)))
        lhs = conjugate_by_Vu(covariant_dirac(A, theta), u, theta)
        rhs = covariant_dirac(gauge_transform(u, A, theta), theta)
        worst = max(worst, lhs.max_deviation(rhs, window))
    record(f"gauge-conjugation x{args.samples}", worst)

    worst = 0.0
    for _ in range(max(args.samples // 2, 3)):
        A = random_one_form()
        worst = max(worst, square_expansion_check(A, theta, window_K=2))
    record(f"square-expansion x{max(args.samples // 2, 3)}", worst)

    ok = all(r["ok"] for r in rows)
    _write_outputs(Path(cfg.out_dir) / "op-check", rows,
                   {"worst_deviation": worst_overall, "all_ok": ok}, cfg)
    return EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    # global flags may appear before or after the subcommand; SUPPRESS keeps
    # leaf defaults from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _GLOBAL_FLAGS.items():
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)

    parser = argparse.ArgumentParser(prog="ncspectral", parents=[common],
                                     exit_on_error=False)
    sub = parser.add_subparsers(dest="group")

    zeta_p = sub.add_parser("zeta", exit_on_error=False)
    zeta_sub = zeta_p.add_subparsers(dest="sub")
    ev = zeta_sub.add_parser("eval", parents=[common], exit_on_error=False)
    ev.add_argument("--P", required=True, help="numerator polynomial, e.g. k1^2*k2^2")
    ev.add_argument("--s-re", type=float, default=0.0)
    ev.add_argument("--s-im", type=float, default=0.0)
    ev.add_argument("--twist", help="JSON list twist vector")
    ev.set_defaults(fn=_cmd_zeta_eval)
    rs = zeta_sub.add_parser("residue", parents=[common], exit_on_error=False)
    rs.add_argument("--P", required=True)
    rs.add_argument("--shift", type=float, default=None)
    rs.set_defaults(fn=_cmd_zeta_residue)

    dio_p = sub.add_parser("dio", exit_on_error=False)
    dio_sub = dio_p.add_subparsers(dest="sub")
    cl = dio_sub.add_parser("classify", parents=[common], exit_on_error=False)
    cl.add_argument("--u-bound", type=int, default=3)
    cl.set_defaults(fn=_cmd_dio_classify)
    co = dio_sub.add_parser("construct", parents=[common], exit_on_error=False)
    co.add_argument("--f", help='profile JSON, e.g. {"kind": "power", "alpha": 3}')
    co.add_argument("--depth", type=int, default=6)
    co.set_defaults(fn=_cmd_dio_construct)

    act_p = sub.add_parser("action", exit_on_error=False)
    act_sub = act_p.add_subparsers(dest="sub")
    for name, fn in [("fit", _cmd_action_fit), ("constant-term", _cmd_action_constant_term),
                     ("heat", _cmd_action_heat), ("correction", _cmd_action_correction)]:
        pp = act_sub.add_parser(name, parents=[common], exit_on_error=False)
        pp.set_defaults(fn=fn)

    op_p = sub.add_parser("op", exit_on_error=False)
    op_sub = op_p.add_subparsers(dest="sub")
    ck = op_sub.add_parser("check", parents=[common], exit_on_error=False)
    ck.add_argument("--all", action="store_true")
    ck.add_argument("--samples", type=int, default=20)
    ck.add_argument("--dump-gammas", action="store_true",
                    help="also write the gamma matrices as JSON arrays")
    ck.set_defaults(fn=_cmd_op_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: ncspectral [--config FILE] GROUP SUBCOMMAND [flags]\n"
              f"groups: {', '.join(_SUBCOMMANDS)}", file=sys.stderr)
        return EXIT_CONFIG

    # validate group/sub before argparse so unknown subcommands exit 64; the
    # value of a global flag placed before the group is not a positional
    positional = [a for i, a in enumerate(argv) if not a.startswith("-")
                  and (i == 0 or argv[i - 1] not in _GLOBAL_FLAGS)]
    group = positional[0] if positional else None
    if group not in _SUBCOMMANDS:
        print(f"unknown subcommand {group!r}; groups: {', '.join(_SUBCOMMANDS)}",
              file=sys.stderr)
        return EXIT_UNKNOWN
    subname = positional[1] if len(positional) > 1 else None
    if subname not in _SUBCOMMANDS[group]:
        print(f"unknown subcommand {group} {subname!r}; "
              f"expected one of {_SUBCOMMANDS[group]}", file=sys.stderr)
        return EXIT_UNKNOWN

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except (argparse.ArgumentError, SystemExit):
        print("malformed arguments", file=sys.stderr)
        return EXIT_CONFIG

    cfg_data: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            cfg_data = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"malformed config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not cfg_data:
            print("malformed config: empty\nusage: ncspectral GROUP SUB [flags]",
                  file=sys.stderr)
            return EXIT_CONFIG
    try:
        cfg = RunConfig.from_dict(cfg_data)
    except ConfigError as exc:
        print(f"malformed config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if getattr(args, "n", None) is not None:
        cfg.n = args.n
    if getattr(args, "theta", None) is not None:
        cfg.theta_preset = args.theta
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    env_threads = os.environ.get("NCSPECTRAL_THREADS")
    if getattr(args, "threads", None) is not None:
        cfg.threads = args.threads
    elif env_threads:
        try:
            cfg.threads = max(1, int(env_threads))
        except ValueError:
            print("malformed NCSPECTRAL_THREADS", file=sys.stderr)
            return EXIT_CONFIG

    try:
        return args.fn(cfg, args)
    except (PoleEvaluationError, MomentError, WindowError, MemoryError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConfigError as exc:
        print(f"malformed config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
