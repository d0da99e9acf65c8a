"""Seeded task lists for the three benchmark workloads.

Each workload function takes a numpy Generator and a `Context` and returns a list of
`Task`s.  The seed changes only coefficients, mode labels, twists and gauge
unitaries; support shapes, cutoff scales, heat times, window sizes and task
counts are fixed, so the cost and the code path of every task do not depend
on the seed.

A task returns a tuple of plain numbers describing its result and raises
`CheckFailed` when the result misses its tolerance.  Tolerances are those of
the acceptance suite wherever it pins one; checks that compare two routes say
which.  Library functions are looked up through their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np
from scipy import special

from ncspectral import action, cli, diophantine, incgamma, operators, zeta
from ncspectral.weyl import DeformationMatrix, FourierElement

EXACT_TOL = 1e-13          # operator identities (acceptance criterion 4)
GAUGE_TOL = 1e-10          # gauge invariance of the action (criterion 12)
CHAIN_DENSE_TOL = 1e-12    # chain against dense window (test_chain_matches_dense_window)
THETA_TOL = 1e-12          # direct against Poisson-dual sums (criterion 3)
HUTCHINSON_TOL = 0.1       # stochastic trace (TestHutchinson)
RESIDUE_TOL = 1e-8         # residue table (criterion 1)
CT4_TOL = 1e-2             # n=4 constant term (criterion 8)
CT2_TOL = 1e-6             # n=2 constant term (criterion 9)
ZETA0_TOL = 1e-10          # zeta of D at the origin (criterion 2)


class CheckFailed(AssertionError):
    """A task's result missed its tolerance."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_err(got, want) -> float:
    return abs(got - want) / abs(want)


@dataclass(frozen=True)
class Task:
    kind: str
    fn: Callable[[], tuple]


class Context:
    """Shared inputs: deformation matrices, profile, temporary directory."""

    def __init__(self, tmp: Path) -> None:
        gold = float(diophantine.golden_ratio(50)) - 1.0
        self.theta = {n: DeformationMatrix.standard_block(n, 2.0 * math.pi * gold)
                      for n in (2, 4)}
        self.gaussian = action.CutoffProfile.gaussian()
        self.tmp = tmp


def _coeff(rng, lo: float = 0.2, hi: float = 0.4) -> complex:
    """Seeded coefficient with bounded modulus, so window margins hold."""
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * rng.uniform(lo, hi))


def _labels(rng, n: int, count: int, radius: int) -> list[tuple[int, ...]]:
    """Seeded mode labels with every component nonzero, so costs match."""
    mags = rng.integers(1, radius + 1, size=(count, n))
    signs = rng.choice(np.array([-1, 1]), size=(count, n))
    return [tuple(int(x) for x in row) for row in mags * signs]


def _one_form(rng, n: int, shape) -> operators.OneForm:
    return operators.OneForm.from_terms(n, [(axis, k, _coeff(rng)) for axis, k in shape])


# ---------------------------------------------------------------------------
# identities: exact operator identities, no eigensolve, no lattice sum

# one-form support shapes per dimension: (axis, shift) pairs
_SHAPES = {
    2: [((1, (1, 0)), (2, (0, 1))), ((1, (1, 1)), (2, (1, 0))), ((2, (0, 1)), (1, (1, -1)))],
    4: [((1, (0, 1, 0, 0)), (3, (1, 1, 0, -1))), ((2, (0, 0, 1, 0)), (4, (1, 0, 0, 0)))],
}
_IDENTITY_WINDOW = {2: 2, 4: 1}


def _pure_gauge(k, n: int, theta: DeformationMatrix, K: int) -> tuple:
    dev = operators.pure_gauge_check(k, n, theta, window_K=K)
    check(dev < EXACT_TOL, f"pure gauge deviation {dev:.3e}")
    return (dev,)


def _covariance(k, n: int, theta: DeformationMatrix, K: int) -> tuple:
    D = operators.dirac(n)
    window = operators.ModeWindow(n, K, spinor_dim=2 ** (n // 2))
    u = FourierElement.unit(n, k)
    dev = operators.conjugate_by_Vu(D, u, theta).max_deviation(D, window)
    check(dev < EXACT_TOL, f"covariance deviation {dev:.3e}")
    return (dev,)


def _gauge_conjugation(A, k, theta: DeformationMatrix, K: int) -> tuple:
    n = A.n
    window = operators.ModeWindow(n, K, spinor_dim=2 ** (n // 2))
    u = FourierElement.unit(n, k)
    lhs = operators.conjugate_by_Vu(operators.covariant_dirac(A, theta), u, theta)
    rhs = operators.covariant_dirac(operators.gauge_transform(u, A, theta), theta)
    dev = lhs.max_deviation(rhs, window)
    check(dev < EXACT_TOL, f"gauge conjugation deviation {dev:.3e}")
    return (dev,)


def _square_expansion(A, theta: DeformationMatrix, K: int) -> tuple:
    dev = operators.square_expansion_check(A, theta, window_K=K)
    check(dev < EXACT_TOL, f"squared expansion deviation {dev:.3e}")
    return (dev,)


def identities(rng, ctx: Context) -> list[Task]:
    tasks = []
    for n, count in ((2, 60), (4, 200)):
        th, K = ctx.theta[n], _IDENTITY_WINDOW[n]
        tasks += [Task(f"pure-gauge-n{n}", partial(_pure_gauge, k, n, th, K))
                  for k in _labels(rng, n, count, 3)]
    for n, count in ((2, 20), (4, 20)):
        th, K = ctx.theta[n], _IDENTITY_WINDOW[n]
        tasks += [Task(f"covariance-n{n}", partial(_covariance, k, n, th, K))
                  for k in _labels(rng, n, count, 2)]
    for n, count in ((2, 40), (4, 40)):
        th, K = ctx.theta[n], _IDENTITY_WINDOW[n]
        for j, k in enumerate(_labels(rng, n, count, 2)):
            A = _one_form(rng, n, _SHAPES[n][j % len(_SHAPES[n])])
            tasks.append(Task(f"gauge-conjugation-n{n}", partial(_gauge_conjugation, A, k, th, K)))
    for n, count in ((2, 20), (4, 10)):
        th, K = ctx.theta[n], _IDENTITY_WINDOW[n]
        for j in range(count):
            A = _one_form(rng, n, _SHAPES[n][j % len(_SHAPES[n])])
            tasks.append(Task(f"square-expansion-n{n}", partial(_square_expansion, A, th, K)))
    return tasks


# ---------------------------------------------------------------------------
# spectra: perturbed actions and heat traces in dimension 2

_COLLINEAR = [((1, (1, 0)), (2, (2, 0))), ((2, (0, 1)), (1, (0, 2)))]
_NONCOLLINEAR = [((1, (1, 0)), (2, (0, 1))), ((1, (1, 1)), (2, (1, 0)))]


def _leading_heat(n: int, t: float) -> float:
    """2^m (pi / t)^{n/2}: leading small-t term of Tr e^{-t D^2}."""
    return 2 ** (n // 2) * (math.pi / t) ** (n / 2)


def _weyl_bounds(A, t: float) -> tuple[float, float]:
    """Bounds on Tr e^{-t D_A^2} in dimension 2 from the flat spectrum (Weyl's inequality).

    D_A differs from the flat operator by a perturbation of norm at most
    s = 2 sum |coefficients|, so each eigenvalue of the window compression
    lies within s of a flat one, and the flat compression has eigenvalues
    +-|k| with total multiplicity 2^m per mode k.
    """
    s = 2.0 * sum(abs(v) for c in A.components for _, v in c.items())
    K = int(math.ceil(math.sqrt(45.0 / t))) + A.spread + 2
    j = np.arange(-K, K + 1, dtype=float)
    norms = np.sqrt(j[:, None] ** 2 + j[None, :] ** 2).ravel()
    lower = 2 * math.fsum(np.exp(-t * (norms + s) ** 2))
    upper = 2 * math.fsum(np.exp(-t * np.maximum(norms - s, 0.0) ** 2))
    return lower * (1 - 1e-9), upper * (1 + 1e-9)


def _checked(res, A, t: float, method: str) -> None:
    check(res.method == method, f"path {res.method}, expected {method}")
    check(res.tail_bound < 1e-10 * res.value, f"tail bound {res.tail_bound:.2e}")
    lower, upper = _weyl_bounds(A, t)
    check(lower <= res.value <= upper, f"trace {res.value} outside [{lower}, {upper}]")


def _action(ctx: Context, A, lam: float, method: str) -> tuple:
    res = action.spectral_action(ctx.gaussian, lam, 2, theta=ctx.theta[2], A=A)
    _checked(res, A, lam ** -2, method)  # Gaussian action at lam = heat trace at lam^-2
    return (res.value, res.tail_bound)


def _heat(ctx: Context, A, t: float, method: str) -> tuple:
    res = action.heat_trace(2, t, theta=ctx.theta[2], A=A)
    _checked(res, A, t, method)
    return (res.value, res.tail_bound, res.window_K)


def _exact(n: int, t: float) -> tuple:
    """Unperturbed heat trace and action against a direct separable lattice sum."""
    hs = action.heat_trace(n, t)
    lam = t ** -0.5
    av = action.spectral_action(action.CutoffProfile.gaussian(), lam, n)
    j = np.arange(-200, 201)
    direct = 2 ** (n // 2) * math.fsum(np.exp(-t * j * j)) ** n
    check(hs.method == "exact-formula" and av.method == "exact-lattice", "unexpected path")
    err = max(rel_err(hs.value.real, direct), rel_err(av.value, direct))
    check(err < THETA_TOL, f"exact trace off the direct sum by {err:.2e}")
    return (hs.value.real, av.value)


def _gauge_pair(ctx: Context, A, k, lam: float) -> tuple:
    th = ctx.theta[2]
    Au = operators.gauge_transform(FourierElement.unit(2, k), A, th)
    s1 = action.spectral_action(ctx.gaussian, lam, 2, theta=th, A=A)
    s2 = action.spectral_action(ctx.gaussian, lam, 2, theta=th, A=Au)
    check(s1.tail_bound < 1e-10 * s1.value, f"tail bound {s1.tail_bound:.2e}")
    err = rel_err(s2.value, s1.value)
    check(err < GAUGE_TOL, f"gauge pair differs by {err:.2e}")
    return (s1.value, s2.value)


def _chain_vs_dense(ctx: Context, A, t: float) -> tuple:
    th = ctx.theta[2]
    chain = action.heat_trace(2, t, theta=th, A=A)
    dense = action.heat_trace(2, t, theta=th, A=A, method="dense-window")
    check(chain.method == "chain-window" and dense.method == "dense-window", "unexpected path")
    err = rel_err(chain.value, dense.value)
    check(err < CHAIN_DENSE_TOL, f"chain and dense windows differ by {err:.2e}")
    return (chain.value, dense.value)


def _fit(ctx: Context, A, grid) -> tuple:
    fit = action.fit_expansion(ctx.gaussian, grid, 2, theta=ctx.theta[2], A=A)
    ref = 2 * zeta.vol_sphere(2)
    c2, sigma = fit.coeffs[2], fit.sigmas[2]
    # tolerance of TestCosmologicalTerm.test_perturbation_invariant_dimension_two
    check(abs(c2 - ref) <= max(5.0 * sigma, 1e-5 * ref),
          f"fitted c2 {c2} against 2^m vol(S^1) {ref} (sigma {sigma:.2e})")
    return (c2, sigma, fit.residual)


def _hutchinson(ctx: Context, A, t: float, probes: int) -> tuple:
    res = action.heat_trace(2, t, theta=ctx.theta[2], A=A, probes=probes)
    check(res.method == "hutchinson", f"path {res.method}, expected hutchinson")
    err = rel_err(res.value, _leading_heat(2, t))
    check(err < HUTCHINSON_TOL, f"stochastic trace off the leading term by {err:.2e}")
    return (res.value, res.window_K)


def spectra(rng, ctx: Context) -> list[Task]:
    tasks = []

    def forms(shapes, count):
        return [_one_form(rng, 2, shapes[j % len(shapes)]) for j in range(count)]

    tasks += [Task("action-chain", partial(_action, ctx, A, 2.5, "chain-window"))
              for A in forms(_COLLINEAR, 20)]
    tasks += [Task("heat-chain", partial(_heat, ctx, A, 0.16, "chain-window"))
              for A in forms(_COLLINEAR, 32)]
    tasks += [Task("action-dense", partial(_action, ctx, A, 0.8, "dense-window"))
              for A in forms(_NONCOLLINEAR, 24)]
    tasks += [Task("heat-dense", partial(_heat, ctx, A, 1.2, "dense-window"))
              for A in forms(_NONCOLLINEAR, 16)]
    tasks += [Task("exact", partial(_exact, n, t))
              for n in (2, 4) for t in (0.05, 0.1, 0.3, 0.7, 1.5)]
    tasks += [Task("gauge-pair", partial(_gauge_pair, ctx, A, k, 2.5))
              for A, k in zip(forms(_COLLINEAR, 6), _labels(rng, 2, 6, 2))]
    tasks += [Task("chain-vs-dense", partial(_chain_vs_dense, ctx, A, 1.0))
              for A in forms(_COLLINEAR, 2)]
    tasks += [Task("heat-dense-large", partial(_heat, ctx, A, 0.3, "dense-window"))
              for A in forms(_NONCOLLINEAR, 1)]
    tasks += [Task("action-dense-large", partial(_action, ctx, A, 1.5, "dense-window"))
              for A in forms(_NONCOLLINEAR, 2)]
    # curved (F != 0) collinear form; its fit misses 2^m vol(S^1) by about half the tolerance
    fit_form = operators.OneForm.from_terms(2, [(2, (1, 0), _coeff(rng, 0.3, 0.5))])
    tasks.append(Task("fit", partial(_fit, ctx, fit_form, [2.5, 3.5, 5.0, 7.0, 10.0])))
    tasks += [Task("hutchinson", partial(_hutchinson, ctx, A, 0.018, 8))
              for A in forms(_NONCOLLINEAR[:1], 1)]
    return tasks


# ---------------------------------------------------------------------------
# analytic: lattice sums, zeta values, residues, constant terms, Diophantine


def _run_cli(ctx: Context, argv: list[str], sub: str | None = None) -> tuple[int, str, dict]:
    """Run the CLI in-process; (exit code, captured text, summary.json of `sub`).

    Artifacts are written to a fresh directory that is removed at once:
    rewriting or deleting artifacts after the file system has written them
    back can stall for tens of milliseconds, which would time the disk.
    """
    out_dir = ctx.tmp / "cli"
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv + ["--out", str(out_dir)])
        summary = {}
        if sub is not None and code == cli.EXIT_OK:
            summary = json.loads((out_dir / sub / "summary.json").read_text())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return code, out.getvalue(), summary


def _cli_ok(ctx: Context, argv: list[str], sub: str) -> dict:
    """Run a CLI subcommand that must exit 0; returns its summary.json."""
    code, text, summary = _run_cli(ctx, argv, sub)
    check(code == cli.EXIT_OK, f"exit {code}: {text.strip()[-200:]}")
    return summary


def _abs_gaussian_sum(series, t: float) -> float:
    """sum_k |P(k)| e^{-t |k|^2} (bounded above monomial by monomial), the
    scale of both sides' rounding errors; each monomial's sum factorizes."""
    R = int(math.ceil(math.sqrt(40.0 / t))) + 2
    m = np.abs(np.arange(-R, R + 1, dtype=float))
    gauss = np.exp(-t * m * m)
    return sum(abs(c) * math.prod(float(np.sum(m ** ej * gauss)) for ej in e)
               for e, c in series.poly.items())


def _theta_pair(series, t: float) -> tuple:
    d = zeta.theta_sum(series, t)
    p = zeta.poisson_dual(series, t)
    # relative, with the scale floored at 1% of the absolute sum: a seeded
    # twist near a zero of the sum must not read as a disagreement
    scale = max(abs(d), abs(p), 0.01 * _abs_gaussian_sum(series, t))
    err = abs(d - p) / scale
    check(err <= THETA_TOL, f"direct and dual sums differ by {err:.2e}")
    return (d, p)


def _poly_text(poly) -> str:
    """Monomial map in the CLI grammar; coefficients are positive, in full precision."""
    return " + ".join("*".join([repr(float(c))] + [f"k{j + 1}^{e}" for j, e in enumerate(expo) if e])
                      for expo, c in poly.items())


def _zeta_eval_direct(ctx: Context, poly, twist, s: float) -> tuple:
    """CLI zeta eval in dimension 2 in the absolutely convergent range, against a direct sum."""
    summ = _cli_ok(ctx, ["zeta", "eval", "--n", "2", "--P", _poly_text(poly),
                         "--s-re", str(s), "--twist", json.dumps(list(twist))], "zeta-eval")
    got = complex(summ["value"]["re"], summ["value"]["im"])
    axis = np.arange(-60, 61)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[np.any(grid != 0, axis=1)].astype(float)
    pv = sum(c * np.prod(grid ** np.array(e), axis=1) for e, c in poly.items())
    terms = pv * np.sum(grid ** 2, axis=1) ** (-s / 2) * np.exp(2j * math.pi * grid @ np.array(twist))
    direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
    # relative to the absolute sum: twisted values can cancel, the truncated
    # tail stays below 1e-10 of it at the chosen s and R
    err = abs(got - direct) / math.fsum(np.abs(terms))
    check(err < 1e-9, f"continued value off the direct sum by {err:.2e}")
    return (got,)


def _residue_table(ctx: Context, idx) -> tuple:
    e = [0, 0, 0, 0]
    for i in idx:
        e[i] += 1
    i, j, l, m = idx
    want = ((i == j) * (l == m) + (i == l) * (j == m) + (i == m) * (j == l)) * math.pi ** 2 / 12
    text = "*".join(f"k{a + 1}^{x}" for a, x in enumerate(e) if x)
    summ = _cli_ok(ctx, ["zeta", "residue", "--n", "4", "--P", text, "--shift", "8"],
                   "zeta-residue")
    got = summ["residue"]["re"]
    check(abs(got - want) < RESIDUE_TOL, f"residue {got} against table value {want}")
    even = not any(x % 2 for x in e)
    check(not even or summ["pole_s"] == 0.0, f"pole at {summ['pole_s']}, expected 0")
    return (got, summ["pole_s"])


def _residue_limit(poly, n: int) -> tuple:
    """Analytic residue against eps * f(pole + eps) from the continuation."""
    series = zeta.TwistedSeries(n, poly)
    pole = series.pole_location
    res = zeta.residue(series, pole)
    eps = 1e-6
    approx = eps * zeta.evaluate(series, pole + eps).value
    err = rel_err(approx, res)
    check(err < 1e-4, f"residue {res} against the continuation limit {approx} ({err:.2e})")
    return (res, approx)


def _reflection(n: int, s: complex) -> tuple:
    """Continued Epstein zeta of Z^n against its functional equation.

    xi(s) = pi^{-s/2} Gamma(s/2) Z(s) is symmetric under s -> n - s; the two
    sides run the Mellin split at different points.
    """
    series = zeta.TwistedSeries(n, {(0,) * n: 1.0})
    a = zeta.evaluate(series, s).value
    b = zeta.evaluate(series, n - s).value
    xa = math.pi ** (-s / 2) * special.gamma(s / 2) * a
    xb = math.pi ** (-(n - s) / 2) * special.gamma((n - s) / 2) * b
    err = rel_err(xb, xa)
    check(err < 1e-10, f"functional equation off by {err:.2e} at s = {s}")
    return (a, b)


def _upper_gamma(a: complex, x: float) -> tuple:
    got = incgamma.upper_gamma(a, x)
    if a.imag == 0:
        want = special.gammaincc(a.real, x) * special.gamma(a.real)
    else:
        want = complex(mpmath.gammainc(a, x))
    err = rel_err(got, want)
    check(err < 1e-12, f"upper gamma({a}, {x}) off by {err:.2e}")
    return (got,)


def _constant_term_cli(ctx: Context, n: int, cfg: Path) -> tuple:
    summ = _cli_ok(ctx, ["action", "constant-term", "--config", str(cfg)],
                   "action-constant-term")
    ct = complex(summ["constant_term"]["re"], summ["constant_term"]["im"])
    if n == 4:
        target = complex(summ["target_n4"]["re"], summ["target_n4"]["im"])
        check(abs(target) > 1e-6, "curvature target vanishes")
        err = rel_err(ct, target)
        check(err <= CT4_TOL, f"constant term {ct} against -(4 pi^2/3) tau(F.F) {target}")
    else:
        check(abs(ct) < CT2_TOL, f"n=2 constant term {ct} does not vanish")
    return (ct,)


def _constant_term_lib(ctx: Context, A) -> tuple:
    th = ctx.theta[A.n]
    ct = action.constant_term(A, th)
    target = -(4.0 * math.pi ** 2 / 3.0) * action.tau_F_squared(A, th)
    if A.n == 4:
        check(rel_err(ct.value, target) <= CT4_TOL, f"constant term {ct.value} vs {target}")
    else:
        check(abs(ct.value) < CT2_TOL, f"n=2 constant term {ct.value} does not vanish")
    return (ct.value,)


def _tadpole(ctx: Context, A) -> tuple:
    r = action.nc_integral_power(A, ctx.theta[A.n], 1)
    check(r.value == 0j, f"tadpole {r.value} is not exactly zero")
    return (r.value,)


def _zeta_origin(n: int) -> tuple:
    val = zeta.zeta_D(0.0, n)
    res = zeta.zeta_D_residue(n)
    check(abs(val) < ZETA0_TOL, f"zeta_D(0) = {val}")
    check(abs(res - 2 ** (n // 2) * zeta.vol_sphere(n)) < RESIDUE_TOL, f"residue {res}")
    return (val, res)


def _correction(ctx: Context) -> tuple:
    summ = _cli_ok(ctx, ["action", "correction", "--n", "2"], "action-correction")
    rep = {r["label"]: r for r in summ["reports"]}
    rational, golden, jarnik = rep["rational"], rep["golden"], rep["jarnik"]
    # ordering of acceptance criterion 10
    check(abs(rational["slope"] + 1.0) <= 0.1, f"rational slope {rational['slope']}")
    check(golden["flag"] == "exponentially-small", f"golden flag {golden['flag']}")
    check(jarnik["flag"] == "ok"
          and rational["slope"] + 0.05 < jarnik["slope"] < -0.05,
          f"jarnik slope {jarnik['slope']}")
    return (rational["slope"], jarnik["slope"])


def _classify(ctx: Context, argv: list[str], verdict: str) -> tuple:
    summ = _cli_ok(ctx, ["dio", "classify"] + argv, "dio-classify")
    check(summ["verdict"] == verdict, f"verdict {summ['verdict']}, expected {verdict}")
    return (summ["verdict"], summ["attempts"])


def _construct_cli(ctx: Context, alpha: int, depth: int) -> tuple:
    summ = _cli_ok(ctx, ["dio", "construct", "--f",
                         json.dumps({"kind": "power", "alpha": alpha}),
                         "--depth", str(depth)], "dio-construct")
    check(summ["certificates_ok"] is True, "certificates failed")
    return (summ["value"],)


def _jarnik(alpha: int, depth: int) -> tuple:
    res = diophantine.jarnik_construct(diophantine.power_profile(alpha), depth=depth)
    check(all(c.gap_bound < c.target for c in res.certificates), "inexact certificate")
    return (res.value, len(res.certificates))


def _exit_code(ctx: Context, argv: list[str], want: int) -> tuple:
    code, _, _ = _run_cli(ctx, argv)
    check(code == want, f"exit {code}, expected {want}")
    return (code,)


def _mono(n: int, spec) -> dict:
    e = [0] * n
    for j, p in spec:
        e[j] += p
    return {tuple(e): 1.0}


# bases of the criterion-3 grid; seeded twists move by at most 0.02 from these
_TWISTS = {2: (0.23, 0.41), 4: (0.23, 0.41, 0.07, 0.55)}
_CT_SHAPES = {
    4: [[(1, (0, 1, 0, 0))], [(2, (0, 0, 1, 0))], [(1, (0, 1, 0, 0)), (2, (1, 0, 0, 0))],
        [(1, (0, 1, 0, 0)), (3, (0, 0, 0, 1))]],
    2: [[(1, (0, 1))], [(2, (1, 0))], [(1, (0, 1)), (2, (1, 0))], [(1, (1, 1)), (2, (0, 1))]],
}


def analytic(rng, ctx: Context) -> list[Task]:
    tasks = []
    even = {2: [_mono(2, []), _mono(2, [(0, 2)]), _mono(2, [(0, 2), (1, 2)]), _mono(2, [(0, 4)])],
            4: [_mono(4, []), _mono(4, [(0, 2)]), _mono(4, [(0, 2), (1, 2)])]}
    odd = {2: [_mono(2, [(0, 1)]), _mono(2, [(0, 1), (1, 1)]), _mono(2, [(0, 3)])],
           4: [_mono(4, [(0, 1)]), _mono(4, [(0, 1), (1, 1)])]}
    # n=4 below t=0.5 enumerates millions of points and takes over 1 GB
    small_t = {2: (1e-3, 0.01, 0.1, 1.0, 5.0), 4: (0.5, 2.0)}
    for n in (2, 4):
        for poly in even[n]:
            for t in small_t[n]:
                tasks.append(Task(f"theta-pair-n{n}", partial(_theta_pair, zeta.TwistedSeries(n, poly), t)))
        for poly in even[n] + odd[n]:
            for t in (0.6, 1.2, 2.5):
                tw = tuple(float(x) for x in np.array(_TWISTS[n]) + rng.uniform(-0.02, 0.02, n))
                tasks.append(Task(f"theta-pair-n{n}",
                                  partial(_theta_pair, zeta.TwistedSeries(n, poly, tw), t)))
    for _ in range(10):
        poly = {(2, 0): rng.uniform(0.5, 1.5), (0, 2): rng.uniform(0.5, 1.5)}
        tw = tuple(float(x) for x in np.array(_TWISTS[2]) + rng.uniform(-0.02, 0.02, 2))
        tasks.append(Task("zeta-eval-cli", partial(_zeta_eval_direct, ctx, poly, tw, 12.0)))
    for idx in rng.integers(0, 4, size=(20, 4)):
        tasks.append(Task("residue-cli", partial(_residue_table, ctx, tuple(int(x) for x in idx))))
    for _ in range(6):
        poly = {(2, 0): rng.uniform(0.5, 1.5), (0, 2): rng.uniform(0.5, 1.5)}
        tasks.append(Task("residue-limit", partial(_residue_limit, poly, 2)))
    # fixed points: the cost of a continuation depends on s, and the n=2
    # reflections are the median task class of this workload
    for n, taus in ((2, np.linspace(0.5, 5.0, 16)), (4, (1.0, 2.0, 3.0, 4.0))):
        for sigma in (-1.5, 0.3, 0.5, 1.25):
            for tau in taus:
                tasks.append(Task(f"zeta-reflection-n{n}",
                                  partial(_reflection, n, complex(sigma, float(tau)))))
    for x in (0.1, 1.0, 5.0, 20.0):
        tasks.append(Task("upper-gamma", partial(_upper_gamma, complex(rng.uniform(0.5, 3.5)), x)))
        tasks.append(Task("upper-gamma", partial(
            _upper_gamma, complex(rng.uniform(-2.5, 2.5), rng.uniform(0.5, 3.0)), x)))
    for n in (4, 2):
        for shape in _CT_SHAPES[n]:
            cfg = ctx.tmp / f"constant-term-{len(tasks)}.json"
            cfg.write_text(json.dumps({"n": n, "one_form": [
                [axis, list(k), z.real, z.imag]
                for axis, k, z in ((axis, k, _coeff(rng, 0.15, 0.45)) for axis, k in shape)]}))
            tasks.append(Task(f"constant-term-cli-n{n}", partial(_constant_term_cli, ctx, n, cfg)))
            for _ in range(6 if n == 4 else 1):
                A = operators.OneForm.from_terms(n, [(axis, k, _coeff(rng, 0.15, 0.45))
                                                     for axis, k in shape])
                tasks.append(Task(f"constant-term-n{n}", partial(_constant_term_lib, ctx, A)))
                tasks.append(Task("tadpole", partial(_tadpole, ctx, A)))
    tasks += [Task("zeta-origin", partial(_zeta_origin, n)) for n in (2, 4)]
    tasks.append(Task("correction-cli", partial(_correction, ctx)))
    tasks.append(Task("classify-cli", partial(_classify, ctx, ["--n", "2", "--theta", "golden"],
                                              "certified-up-to-Q")))
    rational = ctx.tmp / "classify-rational.json"
    rational.write_text(json.dumps({"n": 2, "theta_preset": "rational", "qmax": 200}))
    tasks.append(Task("classify-cli", partial(
        _classify, ctx, ["--config", str(rational), "--u-bound", "1"], "no-certificate-found")))
    tasks += [Task("construct-cli", partial(_construct_cli, ctx, alpha, 6)) for alpha in (3, 4)]
    tasks += [Task("jarnik", partial(_jarnik, alpha, 7)) for alpha in (2, 3, 4)]
    tasks += [
        Task("exit-code", partial(_exit_code, ctx, ["zeta", "eval", "--n", "2", "--P", "1",
                                                    "--s-re", "2"], cli.EXIT_PRECONDITION)),
        Task("exit-code", partial(_exit_code, ctx, ["action", "constant-term", "--n", "2"],
                                  cli.EXIT_PRECONDITION)),
        Task("exit-code", partial(_exit_code, ctx, ["bogus", "run"], cli.EXIT_UNKNOWN)),
    ]
    return tasks


WORKLOADS = {"identities": identities, "spectra": spectra, "analytic": analytic}
