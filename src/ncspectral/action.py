"""Spectral-action numerics for the deformed torus.

Covers cutoff moments, heat traces, spectral actions, twisted heat traces
with their small-t scaling, asymptotic expansion fits over a cutoff-scale
grid, and the residue-based noncommutative integrals of powers of
(perturbation times inverse Dirac) that assemble the constant term of the
expansion.

Perturbed heat traces and spectral actions share one plan and one engine, since
the heat trace at t is the Gaussian action at lam = t^{-1/2}; every trace is a
`TraceValue`.  The plan (`_plan`, also the preflight of fits) fixes the window
radius, basis, path and size check before anything is built.  The engine
compresses the covariant Dirac operator to a mode window and forms a Gram matrix G whose
eigenvalues are the squared window eigenvalues.  In even n the operator
anticommutes with the chirality, so G is C* C of its chiral block C, at half
the window size, and each singular value of C stands for the eigenvalue pair
+-sigma; odd n squares the window matrix.  The trace is one spectral function
of G.  The exact paths solve once per connected block of G: a band solve per
block when the one-form's support is collinear (its blocks are lattice lines),
a dense solve per block otherwise, the latter when the full window basis is
within the dense limit.  Beyond it, for any profile, stochastic Lanczos
quadrature over Rademacher probes gives the trace with a standard error.  One
outside-window tail bound is added to each.
Unperturbed traces are lattice sums, and every lattice-sum decision (direct
or Poisson-dual side, shell sums and their box guard, the integral-twist
test) is made in `zeta`; this module only calls it.

The integrals are computed exactly: the diagonal amplitude of the q-th power
is expanded over Fourier shift paths with its sine factors split into
exponentials (one twisted phase per sign choice; `zeta.integral_mask` keeps
those with an integral twist).  All zero-sum paths are contracted as arrays:
the spinor trace of the q linear factors is a tensor with one index per factor
(its constant or a k_nu), the inverse squared norms expand at large momentum in
complete homogeneous polynomials held as tensors of the same indices, and a
cached table of sphere moments (`zeta.sphere_moments`) of homogeneity minus n
contracts the two.  No order past n - q holds a monomial of the degree a
residue needs, so the expansion is exact and the order delta is identically 0.
Modes where an intermediate momentum hits the kernel cannot move residues.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix, identity, kron

from .clifford import build_gamma
from .operators import (DEFAULT_BASIS_LIMIT, ModeWindow, OneForm, WindowError, assemble_sparse,
                        covariant_dirac)
from .weyl import DeformationMatrix, FourierElement, field_strength, multiply, trace
from .zeta import (TwistedSeries, _lattice_shell_sums, check_lattice_box, gaussian_sum,
                   integral_mask, sphere_moments)

__all__ = [
    "CutoffProfile",
    "MomentError",
    "TraceValue",
    "ExpansionFit",
    "ScalingReport",
    "NcIntegral",
    "ConstantTerm",
    "moments",
    "heat_trace",
    "twisted_heat_trace",
    "correction_scaling",
    "spectral_action",
    "fit_expansion",
    "nc_integral_power",
    "constant_term",
    "tau_F_squared",
]

_DENSE_LIMIT = 20_000
_EXACT_LIMIT = 10_000_000  # exact paths assemble the whole window, about 0.7 KB per basis element
_PROBES = 64
_PROBE_SEED = 7
_CHUNK_PATHS = 1 << 8  # candidate step tuples per slice of nc_integral_power, bounding its memory


class MomentError(ValueError):
    """A cutoff moment does not converge for the requested profile."""


@dataclass(frozen=True)
class CutoffProfile:
    """Even positive cutoff profile on [0, inf), from a named preset.

    `reach(lam)` is the lattice radius past which profile(|k| / lam) is
    negligible; profile(u) falls like u^-decay (decay inf: faster than any power).
    """

    name: str
    fn: Callable[[float], float] = field(repr=False)
    reach: Callable[[float], int] = field(repr=False)
    decay: float = math.inf

    @classmethod
    def gaussian(cls) -> "CutoffProfile":
        return cls("gaussian", lambda x: math.exp(-x * x),
                   lambda lam: int(math.ceil(lam * math.sqrt(42.0))))

    @classmethod
    def super_gaussian(cls) -> "CutoffProfile":
        return cls("super-gaussian", lambda x: math.exp(-x ** 4),
                   lambda lam: int(math.ceil(lam * 42.0 ** 0.25)) + 1)

    @classmethod
    def rational_decay(cls, r: float = 3.0) -> "CutoffProfile":
        if r <= 0:
            raise ValueError("rational profile needs r > 0")
        decay = 2.0 * r
        return cls("rational", lambda x: (1.0 + x * x) ** (-r),
                   lambda lam: int(math.ceil(lam * 10.0 ** (14.0 / decay))), decay)

    @classmethod
    def preset(cls, name: str, **params) -> "CutoffProfile":
        """Preset by name; only the rational profile takes a parameter, r."""
        makers = {"gaussian": cls.gaussian, "super-gaussian": cls.super_gaussian,
                  "super_gaussian": cls.super_gaussian, "rational": cls.rational_decay}
        if name not in makers:
            raise ValueError(f"unknown profile preset {name!r}")
        return makers[name](**params)  # TypeError on a parameter the preset lacks

    def __call__(self, x):
        """profile(|x|) for a float, or entrywise for an array.

        An array maps the preset's scalar function over its entries, so every
        value is the libm value of a scalar call; numpy's vector exp and pow
        differ from it in the last bit.
        """
        if isinstance(x, np.ndarray):
            vals = map(self.fn, np.abs(x).ravel().tolist())
            return np.fromiter(vals, float, x.size).reshape(x.shape)
        return self.fn(abs(x))

    @property
    def at_zero(self) -> float:
        return self.fn(0.0)


def moments(profile: CutoffProfile, k: int) -> float:
    """Cutoff moment int_0^inf profile(u) u^{k-1} du by adaptive quadrature.

    This is the weight multiplying the k-th power of the cutoff scale in the
    expansion; with the Gaussian preset it equals Gamma(k/2)/2.
    """
    if k < 1:
        raise ValueError("moment index must be >= 1")
    if k >= profile.decay:
        raise MomentError(
            f"moment {k} of the {profile.name} profile diverges (decay u^-{profile.decay:g})")
    val, err = quad(lambda u: profile.fn(u) * u ** (k - 1), 0.0, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=300)
    if not math.isfinite(val) or (abs(val) > 0 and err > 1e-10 * abs(val)):
        raise MomentError(f"moment {k} quadrature did not converge (err {err:.2e})")
    return float(val)


def _moment_weight(profile: CutoffProfile, k: int) -> float:
    """Expansion weight for power k: the moment for k >= 1, profile(0) for k = 0."""
    return profile.at_zero if k == 0 else moments(profile, k)


@dataclass(frozen=True)
class TraceValue:
    """A trace, its tail bound and path; `window_K` is the radius of a window path
    (None on lattice paths), `stderr` the standard error of hutchinson (else 0)."""

    value: float | complex
    tail_bound: float
    method: str
    window_K: int | None = None
    stderr: float = 0.0


_HEAT_METHODS = ("auto", "dense-window")


def heat_trace(n: int, t: float, theta: DeformationMatrix | None = None,
               A: OneForm | None = None, method: str = "auto",
               window_K: int | None = None, dense_limit: int = _DENSE_LIMIT,
               probes: int = _PROBES) -> TraceValue:
    """Trace of e^{-t D_A^2}.

    With no perturbation the exact lattice formula 2^m sum_k e^{-t |k|^2}
    applies (`zeta.gaussian_sum`).  With a perturbation, or with the dense
    path forced, this is the Gaussian spectral action at lam = t^{-1/2}: the
    plan and engine of `spectral_action` (`_plan`, `_perturbed_trace`), with
    `probes` Rademacher probes (at least 2) on the stochastic path.  `method`
    is auto or dense-window; dense-window forces a dense solve per block, for
    any support and window size.
    """
    if method not in _HEAT_METHODS:
        raise ValueError(f"unknown heat-trace method {method!r}; expected one of {_HEAT_METHODS}")
    if t <= 0:
        raise ValueError("t must be positive")
    if probes < 2:
        raise ValueError("a stochastic trace needs at least 2 probes")
    m = n // 2
    if A is None or A.is_zero():
        if method == "auto":
            val = gaussian_sum(TwistedSeries(n, {(0,) * n: 1.0}), t).real
            return TraceValue((2 ** m) * val, (2 ** m) * 1e-16 * abs(val), "exact-formula")
        A = OneForm.zero(n)
        theta = theta if theta is not None else DeformationMatrix.zero(n)
    gaussian, lam = CutoffProfile.gaussian(), t ** -0.5
    plan = _plan(gaussian, lam, A, window_K, method, dense_limit)
    return _perturbed_trace(gaussian, lam, A, theta, plan, probes)


def _collinear(A: OneForm) -> bool:
    """Whether A has a nonzero support shift and all of them lie on one line through 0."""
    pts = [h for c in A.components for h, _ in c.items() if any(h)]
    # h is parallel to pts[0] iff all 2x2 minors vanish
    return bool(pts) and all(h[i] * pts[0][j] == h[j] * pts[0][i]
                             for h in pts for i in range(A.n) for j in range(i))


def _plan(profile: CutoffProfile, lam: float, A: OneForm, window_K: int | None = None,
          method: str = "auto", dense_limit: int = _DENSE_LIMIT) -> tuple[int, int, str]:
    """(radius K, basis N, path) of a perturbed trace, size-checked before anything is built.

    K is window_K, else the profile's reach plus the support spread plus 1; N
    counts the max-norm box of radius K times 2^{n//2} spinors.  The path is
    chain-window on a collinear support unless dense-window is forced, else
    dense-window when forced or within the dense limit, else hutchinson.
    """
    K = window_K if window_K is not None else profile.reach(lam) + A.spread + 1
    N = (2 * K + 1) ** A.n * 2 ** (A.n // 2)
    if method != "dense-window" and _collinear(A):
        path = "chain-window"
    else:
        path = "dense-window" if method == "dense-window" or N <= dense_limit else "hutchinson"
    kind, limit = (("stochastic", DEFAULT_BASIS_LIMIT) if path == "hutchinson"
                   else ("exact", _EXACT_LIMIT))
    if N > limit:
        raise WindowError(f"window basis {N} exceeds {kind} limit {limit}; "
                          "use a smaller scale or window")
    return K, N, path


def _perturbed_trace(profile: CutoffProfile, lam: float, A: OneForm,
                     theta: DeformationMatrix | None, plan: tuple[int, int, str],
                     probes: int = _PROBES) -> TraceValue:
    """Tr profile(D_A / lam) on the window of a `_plan`, with its outside-window tail bound.

    The trace is one spectral function f(mu) = mult * profile(sqrt(mu) / lam)
    of the Gram matrix G of `_chiral_gram`, whose eigenvalues mu are the squared
    |eigenvalues| of the window matrix (so the profile must be even).  The
    exact paths make one solve per connected block of G (`_block_eigenvalues`):
    a band solve per block on chain-window, whose blocks are lattice lines,
    and a dense solve per block on dense-window.  On hutchinson the mean of
    Lanczos quadratures over probes estimates it, with a standard error.
    """
    if theta is None:
        raise ValueError("a deformation matrix is required with a perturbation")
    K, N, path = plan
    window = ModeWindow(A.n, K, spinor_dim=2 ** (A.n // 2))
    M = assemble_sparse(covariant_dirac(A, theta), window, basis_limit=N)
    G, mult = _chiral_gram(M, window)

    def f(mu):
        return mult * profile(np.sqrt(np.maximum(mu, 0.0)) / lam)

    tail = _outside_tail(profile, lam, A, K)
    if path == "hutchinson":  # Rademacher probes from a fixed seed
        rng = np.random.default_rng(_PROBE_SEED)
        samples = [_lanczos_quadrature(G, rng.integers(0, 2, size=G.shape[0]) * 2.0 - 1.0, f)
                   for _ in range(probes)]
        return TraceValue(float(np.mean(samples)), tail, path, K,
                          float(np.std(samples, ddof=1)) / math.sqrt(probes))
    mu = _block_eigenvalues(G, banded=path == "chain-window")
    return TraceValue(float(np.sum(f(mu))), tail, path, K)


def _lanczos_quadrature(G, v: np.ndarray, f) -> float:
    """v* f(G) v by Gauss quadrature on the Lanczos tridiagonal T of (G, v).

    Nodes are the eigenvalues of T, weights |v|^2 S[0, j]^2 from its eigenvectors
    S (Ubaru, Chen, Saad, SIAM J. Matrix Anal. Appl. 38 (2017)).  Stops when the
    quadrature moves by at most 1e-14 relative, on breakdown or after G.shape[0]
    steps.
    """
    from scipy.linalg import eigh_tridiagonal

    norm2 = float(np.vdot(v, v).real)
    q_prev, q, beta = 0.0, v / math.sqrt(norm2), 0.0
    alphas, betas, est = [], [], None
    for _ in range(G.shape[0]):
        w = G @ q - beta * q_prev
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q
        nodes, S = eigh_tridiagonal(alphas, betas)
        last, est = est, norm2 * float(np.sum(S[0] ** 2 * f(nodes)))
        beta = float(np.linalg.norm(w))
        if ((last is not None and abs(est - last) <= 1e-14 * abs(est))
                or beta <= 1e-14 * max(map(abs, alphas))):
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    return est


def _chiral_gram(M, window: ModeWindow) -> tuple[csr_matrix, int]:
    """(G, mult): the eigenvalues of G are the squared |eigenvalues| of M, each counted mult times.

    In even n every term of D_A carries exactly one gamma matrix, so D_A
    anticommutes with the chirality.  With the spinor index rotated into the
    chirality eigenbasis by P+- = 1_modes (x) U+-, the window matrix is
    [[0, C], [C*, 0]] with C = P+* M P-, whose eigenvalues are +-sigma(C): G is
    C* C at half the window size and mult is 2.  Odd n has no chirality, and G
    is M M with mult 1.
    """
    chi = build_gamma(window.n).chirality
    if chi is None:
        return (M @ M).tocsr(), 1
    _, U = np.linalg.eigh(chi)  # ascending: the -1 eigenvectors first
    half = U.shape[1] // 2
    modes = identity(len(window.grid), format="csr")
    P_minus = kron(modes, csr_matrix(U[:, :half]), format="csr")
    P_plus = kron(modes, csr_matrix(U[:, half:]), format="csr")
    C = (P_plus.conj().T @ M @ P_minus).tocsr()
    return (C.conj().T @ C).tocsr(), 2


def _block_eigenvalues(G, banded: bool) -> np.ndarray:
    """Eigenvalues of a hermitian sparse G, one solve per connected block of its nonzero pattern.

    One-row blocks are read off the diagonal at once.  A stable sort by block
    keeps G's (lexicographic window) order inside each other block, and the
    entries are permuted once through their coordinates.  With `banded` (a
    collinear support: each block is a stretch of a lattice line, consecutive
    modes a hop apart) one lower band array (b + 1, rows) of the permuted
    bandwidth b is filled and each block's column slice goes to LAPACK's
    hermitian band eigensolver (hbevd); otherwise each block is one dense eigvalsh.
    """
    from scipy.linalg import LinAlgError, get_lapack_funcs
    from scipy.sparse.csgraph import connected_components

    # the pattern is built here, as csgraph would cast complex weights to float
    _, label = connected_components(G != 0, directed=False)
    sizes = np.bincount(label)
    single = sizes[label] == 1
    eigs = [G.diagonal()[single].real]
    multi = np.flatnonzero(~single)
    perm = multi[np.argsort(label[multi], kind="stable")]  # new position -> old index
    where = np.full(G.shape[0], -1)
    where[perm] = np.arange(len(perm))
    coo = G.tocoo()
    keep = (coo.data != 0) & (where[coo.row] >= 0)
    row, col, data = where[coo.row[keep]], where[coo.col[keep]], coo.data[keep]
    bounds = np.concatenate([[0], np.cumsum(sizes[sizes > 1])])
    if banded:
        low = row >= col
        offset = row[low] - col[low]
        b = int(offset.max(initial=0))
        band = np.zeros((b + 1, len(perm)), dtype=complex, order="F")
        band[offset, col[low]] = data[low]
        hbevd = get_lapack_funcs("hbevd", (band,))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            w, _, info = hbevd(band[:min(b, hi - lo - 1) + 1, lo:hi], compute_v=0, lower=1)
            if info:
                raise LinAlgError(f"hbevd failed on a block of {hi - lo} rows (info {info})")
            eigs.append(w)
    else:
        order = np.argsort(row, kind="stable")
        row, col, data = row[order], col[order], data[order]
        starts = np.searchsorted(row, bounds)
        for lo, hi, s, e in zip(bounds[:-1], bounds[1:], starts[:-1], starts[1:]):
            block = np.zeros((hi - lo, hi - lo), dtype=G.dtype)
            block[row[s:e] - lo, col[s:e] - lo] = data[s:e]
            eigs.append(np.linalg.eigvalsh(block))
    return np.concatenate(eigs)


def _outside_tail(profile: CutoffProfile, lam: float, A: OneForm, K: int) -> float:
    """Bound on the trace outside a radius-K window.

    Each eigenvalue lies within shift = 2 sum |A| of a flat one, so the bound
    sums f(j) = 2^m 2n (2j + 1)^{n-1} profile((j - shift) / lam) over the shells
    |k|_inf = j > K until a shell adds less than 1e-18 of the sum.  A power-law
    tail that is still above that after 100000 shells, but falling, gets the
    integral of f from the last shell summed to infinity as the bound of its
    rest; raises MomentError when f still grows there or the integral does not
    converge.
    """
    n = A.n
    shift = 2.0 * sum(abs(v) for c in A.components for _, v in c.items())

    def shell(x):
        return 2 * n * (2 * x + 1) ** (n - 1) * profile.fn(max(x - shift, 0.0) / lam)

    total, term = 0.0, math.inf
    for j in range(K + 1, K + 100_000):
        prev, term = term, shell(j)
        total += term
        if term < 1e-18 * (1.0 + total):
            return (2 ** (n // 2)) * total
    if term < prev:
        # f rises then falls, so it falls on [j, inf) and its integral there bounds the rest
        rest, err, *_ = quad(shell, j, np.inf, epsabs=0.0, epsrel=1e-10, limit=200, full_output=1)
        if math.isfinite(rest) and err <= 1e-6 * rest:
            return (2 ** (n // 2)) * (total + rest + err)
    raise MomentError(f"outside-window tail of the {profile.name} profile still grows "
                      f"after 100000 shells beyond K = {K} in dimension {n}")


def twisted_heat_trace(a: FourierElement, b: FourierElement, theta: DeformationMatrix,
                       t: float) -> TraceValue:
    """Trace of L(a) R(b) e^{-t D^2} = 2^m sum_q a_q b_{-q} S_q(t).

    S_q(t) is the full Gaussian lattice sum with twist vector Theta q / 2 pi
    (`zeta.gaussian_sum`).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    n, m = theta.n, theta.n // 2
    total, tail = 0j, 0.0
    for q, aq in a.items():
        bq = b.coeff(tuple(-c for c in q))
        if bq == 0:
            continue
        twist = tuple((theta.theta @ np.array(q)) / (2.0 * math.pi))
        s_q = gaussian_sum(TwistedSeries(n, {(0,) * n: 1.0}, twist), t)
        total += aq * bq * s_q
        tail += abs(aq * bq) * 1e-16 * (abs(s_q) + 1.0)
    return TraceValue((2 ** m) * total, (2 ** m) * tail, "twisted-lattice")


@dataclass(frozen=True)
class ScalingReport:
    label: str
    slope: float | None
    stderr: float | None
    points_used: int
    flag: str  # "ok" or "exponentially-small"


def correction_scaling(theta_family: Sequence[tuple], t_grid: Sequence[float],
                       rel_floor: float = 1e-30) -> list[ScalingReport]:
    """Fit log |Delta(t)| vs log t per deformation parameter.

    Each family entry is (label, DeformationMatrix, a, b); Delta is the
    twisted trace minus its untwisted part.  Grid points where Delta falls
    below rel_floor of the untwisted term are dropped; if fewer than half the
    grid survives the entry is flagged exponentially small instead of fitted.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 6:
        raise ValueError("need at least 6 grid points")
    out = []
    for label, theta, a, b in theta_family:
        logt, logd = [], []
        for t in t_grid:
            full = twisted_heat_trace(a, b, theta, t).value
            plain = heat_trace(theta.n, t).value
            q0 = trace(a) * trace(b) * plain
            delta = abs(full - q0)
            if delta > rel_floor * abs(plain):
                logt.append(math.log(t))
                logd.append(math.log(delta))
        if len(logt) < max(3, len(t_grid) // 2):
            out.append(ScalingReport(label, None, None, len(logt), "exponentially-small"))
            continue
        coeffs, cov = np.polyfit(logt, logd, 1, cov=True)
        out.append(ScalingReport(label, float(coeffs[0]), float(math.sqrt(max(cov[0, 0], 0.0))),
                                 len(logt), "ok"))
    return out


def spectral_action(profile: CutoffProfile, lam: float, n: int,
                    theta: DeformationMatrix | None = None, A: OneForm | None = None,
                    window_K: int | None = None, dense_limit: int = _DENSE_LIMIT) -> TraceValue:
    """Tr profile(D_A / lam): counts spectral values below the cutoff scale.

    Unperturbed Gaussian runs through the heat-trace code path at t = 1/lam^2;
    other unperturbed profiles are summed directly over the lattice (both
    exact-lattice).  With a perturbation the window, basis and path come from
    `_plan`, and the one engine (`_perturbed_trace`) evaluates the profile on
    the chiral Gram matrix: exactly by one solve per connected block, band on
    collinear supports and dense otherwise, or stochastically, with a standard
    error, above the dense limit.  A profile with decay <= n raises MomentError
    before any window is built, as the trace diverges.
    """
    if lam <= 0:
        raise ValueError("cutoff scale must be positive")
    if n >= profile.decay:
        # Tr (1 + D^2 / lam^2)^-r diverges: the modes below |k| grow like |k|^n
        raise MomentError(f"{profile.name} profile too slowly decaying for this dimension")
    if A is None or A.is_zero():
        if profile.name == "gaussian":
            hs = heat_trace(n, 1.0 / lam ** 2)
            return TraceValue(float(hs.value), hs.tail_bound, "exact-lattice")
        return TraceValue(*_profile_lattice_sum(profile, lam, n), "exact-lattice")
    return _perturbed_trace(profile, lam, A, theta,
                            _plan(profile, lam, A, window_K, dense_limit=dense_limit))


def _profile_lattice_sum(profile: CutoffProfile, lam: float, n: int) -> tuple[float, float]:
    """Tr profile(D / lam) = 2^m sum over Z^n of profile(|k| / lam), with a tail bound.

    The bound is the outside-window bound of the radius-R box summed here, plus
    1e-16 of the sum for rounding.
    """
    R = profile.reach(lam)
    shells, _ = _lattice_shell_sums(TwistedSeries(n, {(0,) * n: 1.0}), R,
                                    lambda nsq: profile(np.sqrt(nsq) / lam))
    # the origin is not a shell
    total = (2 ** (n // 2)) * (profile.at_zero + float(np.sum(shells.real)))
    return total, _outside_tail(profile, lam, OneForm.zero(n), R) + 1e-16 * total


@dataclass(frozen=True)
class ExpansionFit:
    lams: tuple[float, ...]
    values: tuple[float, ...]
    coeffs: dict[int, float]
    sigmas: dict[int, float]
    guard_coeff: float
    residual: float
    cond: float


def fit_expansion(profile: CutoffProfile, lam_grid: Sequence[float], n: int,
                  theta: DeformationMatrix | None = None, A: OneForm | None = None
                  ) -> ExpansionFit:
    """Least-squares fit of the action to sum_k weight_k c_k lam^k plus a 1/lam guard.

    Returns the c_k with uncertainties from the residual; the caller widens
    the grid when the reported conditioning is poor.  Before the first sum,
    a grid with a scale whose `_plan` is stochastic is refused (a fit needs
    exact traces), as is an unperturbed non-Gaussian profile's largest lattice
    box beyond the lattice guard.
    """
    lams = [float(x) for x in lam_grid]
    if len(lams) < n + 3:
        raise ValueError(f"need at least {n + 3} grid points for dimension {n}")
    if max(lams) < 4.0 * min(lams):
        raise ValueError("grid spread must cover at least a factor of 4")
    if (A is None or A.is_zero()) and profile.name != "gaussian":
        check_lattice_box(n, profile.reach(max(lams)))
    elif A is not None and not A.is_zero():
        for lam in lams:
            _, N, path = _plan(profile, lam, A)
            if path == "hutchinson":
                raise WindowError(f"window basis {N} exceeds dense limit {_DENSE_LIMIT}; "
                                  "use a smaller scale or window")

    values = [spectral_action(profile, lam, n, theta=theta, A=A).value for lam in lams]
    powers = list(range(n, -1, -1)) + [-1]
    design = np.array([[lam ** p for p in powers] for lam in lams])
    scale = np.sqrt(np.sum(design ** 2, axis=0))
    beta_s, res, _, svals = np.linalg.lstsq(design / scale, np.array(values), rcond=None)
    beta = beta_s / scale
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    fitted = design @ beta
    residual = float(np.sqrt(np.mean((fitted - np.array(values)) ** 2)))
    dof = max(len(lams) - len(powers), 1)
    chi2 = float(np.sum((fitted - np.array(values)) ** 2)) / dof
    cov = chi2 * np.linalg.pinv((design / scale).T @ (design / scale))
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0)) / scale

    coeffs: dict[int, float] = {}
    sigmas: dict[int, float] = {}
    for j, p in enumerate(powers):
        if p < 0:
            continue
        w = _moment_weight(profile, p)
        coeffs[p] = float(beta[j] / w) if w != 0 else float("nan")
        sigmas[p] = float(sig[j] / abs(w)) if w != 0 else float("nan")
    return ExpansionFit(lams=tuple(lams), values=tuple(float(v) for v in values),
                        coeffs=coeffs, sigmas=sigmas, guard_coeff=float(beta[-1]),
                        residual=residual, cond=cond)


# ---------------------------------------------------------------------------
# noncommutative integrals via symbol expansion


@dataclass(frozen=True)
class NcIntegral:
    value: complex
    order_delta: float  # identically 0: no order past n - q has a monomial of residue degree
    q: int


@dataclass(frozen=True)
class ConstantTerm:
    value: complex
    per_q: dict[int, complex]


def nc_integral_power(A: OneForm, theta: DeformationMatrix, q: int) -> NcIntegral:
    """Residue at the origin of the trace of (perturbation x D^{-1})^q |D|^{-s}.

    A shift path h_1 + ... + h_q = 0 with partial sums c_j contributes the spinor
    trace of prod_j gamma^{a_j} ((k + c_j).gamma) over prod_j |k + c_j|^2; the
    zero-sum paths of each slice of `_CHUNK_PATHS` candidate step tuples are
    contracted at once.  `order_delta` is identically 0 (see the module notes).
    The tadpole q = 1 vanishes identically: no single nonzero shift sums to zero.
    """
    n = A.n
    if not 1 <= q <= n:
        raise ValueError(f"power q must lie in 1..{n}")
    steps = [(ai, h, v) for ai, comp in enumerate(A.components) for h, v in comp.items() if any(h)]
    if not steps:
        return NcIntegral(value=0j, order_delta=0.0, q=q)
    axis, shifts, coeffs = map(np.array, zip(*steps))
    gammas = np.array(build_gamma(n).gammas)
    d, gg = gammas.shape[1], gammas[axis][:, None] @ gammas  # per step: gamma^a gamma^nu, all nu
    signs = np.array(list(itertools.product((-1, 1), repeat=q)))
    # numerator indices x H_r indices, with the sign of the r-th denominator order
    tables = [(-1) ** r * _moment_table(n, q + r).reshape((n + 1) ** q, -1)
              for r in range(n - q + 1)]
    total, count = 0j, len(steps) ** q
    for start in range(0, count, _CHUNK_PATHS):
        path = np.stack(np.unravel_index(np.arange(start, min(start + _CHUNK_PATHS, count)),
                                         (len(steps),) * q), axis=-1)
        path = path[~shifts[path].sum(axis=1).any(axis=1)]
        P, hs = len(path), shifts[path]
        if not P:
            continue
        c = np.cumsum(hs, axis=1) - hs  # partial sums c_j = h_1 + ... + h_{j-1}
        # every contraction is row by row (einsum or a stacked product) and the paths are
        # summed one at a time in order, so the slicing never changes the sum.  Sign choices
        # sigma of the sine split: coefficient (prod sigma) e^{i phi} and twist -Theta w / 4 pi
        # with w = sum_j sigma_j h_j; only integral twists leave a residue
        phi = 0.5 * np.einsum("pj,sj->ps", theta.bilinear_batch(hs, c), signs)
        twists = -np.einsum("psm,nm->psn", np.einsum("sj,pjn->psn", signs, hs),
                            theta.theta) / (4.0 * math.pi)
        kernel = np.where(integral_mask(twists), signs.prod(axis=1) * np.exp(1j * phi), 0).sum(1)
        # numerator: the linear factors gamma^a ((k + c).gamma), index 0 for the constant and
        # nu + 1 for k_nu, multiplied in order with the product laid out as (row, index tuple,
        # column); the last factor is contracted straight into the trace
        factors = np.concatenate([np.einsum("pjn,pjnab->pjab", c, gg[path])[:, :, None],
                                  gg[path]], axis=2)
        mats = np.broadcast_to(np.eye(d)[:, None], (P, d, 1, d))
        for j in range(q - 1):
            mats = (factors[:, j].reshape(P, -1, d) @ mats.reshape(P, d, -1)).reshape(
                P, n + 1, d, -1, d).transpose(0, 2, 1, 3, 4).reshape(P, d, -1, d)
        numer = (factors[:, -1].reshape(P, n + 1, d * d)
                 @ mats.transpose(0, 3, 1, 2).reshape(P, d * d, -1)).reshape(P, -1)
        # denominator: H_r += s_j H_{r-1} one factor at a time, s_j lifted as (|c_j|^2, 2 c_j)
        lifts = np.concatenate([np.einsum("pjn,pjn->pj", c, c)[..., None], 2.0 * c], axis=2)
        H = [np.ones((P, 1))] + [np.zeros((P, (n + 1) ** r)) for r in range(1, n - q + 1)]
        for j, r in itertools.product(range(1, q), range(1, len(H))):
            H[r] += (lifts[:, j, :, None] * H[r - 1][:, None]).reshape(P, -1)
        pick = sum(np.einsum("pi,il,pl->p", numer, table, h) for table, h in zip(tables, H))
        total = sum((1j ** q * np.prod(coeffs[path], axis=1) * kernel * pick).tolist(), total)
    return NcIntegral(value=total, order_delta=0.0, q=q)


@functools.lru_cache(maxsize=None)
def _moment_table(n: int, m: int) -> np.ndarray:
    """Sphere moment of the monomial of each tuple of m indices (0 for the constant 1, nu + 1
    for k_nu), masked to the residue degree 2m - n, with the tuples in C order."""
    exps = np.eye(n + 1, n, -1, dtype=np.int64)[np.indices((n + 1,) * m).reshape(m, -1).T].sum(1)
    table = np.where(exps.sum(axis=1) == 2 * m - n, sphere_moments(exps, n), 0.0)
    table.flags.writeable = False
    return table


def constant_term(A: OneForm, theta: DeformationMatrix) -> ConstantTerm:
    """Zeta value at the origin of the perturbed operator, from the q-expansion.

    Since the unperturbed zeta vanishes at the origin this is the whole
    constant coefficient of the action expansion.
    """
    per_q = {q: nc_integral_power(A, theta, q).value for q in range(1, A.n + 1)}
    return ConstantTerm(value=sum((((-1) ** q / q) * v for q, v in per_q.items()), 0j),
                        per_q=per_q)


def tau_F_squared(A: OneForm, theta: DeformationMatrix) -> complex:
    """tau(F_{mu nu} F^{mu nu}) with flat metric contraction, from the algebra side."""
    F = field_strength(A, theta)
    n, total = A.n, 0j
    for mu in range(n):
        for nu in range(n):
            if not F[mu][nu].is_zero():
                total += trace(multiply(F[mu][nu], F[mu][nu], theta))
    return total
