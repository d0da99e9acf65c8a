"""Twisted lattice zeta series: evaluation, continuation, residues.

A series is the data (n, P, a) of f_a(s) = sum_{k != 0} P(k) |k|^{-s}
e^{2 pi i k.a} with P a homogeneous polynomial.  Continuation follows the
Mellin split at t = 1: the t >= 1 half is summed termwise with upper
incomplete gamma factors; the t < 1 half is rewritten through the Poisson
dual sum, whose off-center terms again reduce to incomplete gammas and whose
center term carries the only pole, isolated analytically.  Residues are
therefore read off, never estimated by limits.

Two independent representations of the Gaussian generating sum (direct
lattice sum vs Hermite-weighted dual sum) provide the identity check that
validates the whole machinery.

Every lattice-sum decision lives here: `gaussian_sum` holds the direct/dual
switch, `_hermite_power_coeffs` alone reads the Hermite table, `is_integral`
is the integral-twist test and `check_lattice_box` the guard on the box of a
direct sum.  Direct sums group the box by |k|^2 without enumerating it: a
monomial factorizes over the axes, so its shell table is the convolution of
one-axis tables indexed by k^2 (`_lattice_shell_sums`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma, rgamma as _rgamma

from .incgamma import upper_gamma
from .polynomials import Poly, poly_degree, poly_is_homogeneous

__all__ = [
    "TwistedSeries",
    "ContinuationResult",
    "ShiftedResidue",
    "PoleEvaluationError",
    "theta_sum",
    "poisson_dual",
    "gaussian_sum",
    "is_integral",
    "check_lattice_box",
    "evaluate",
    "residue",
    "residue_shifted",
    "sphere_integral",
    "zeta_D",
    "zeta_D_residue",
    "twisted_family_residue",
    "vol_sphere",
]

MAX_DEGREE = 6
_LOG_EPS = 39.0  # ~ -ln(1e-17)
_MAX_POINTS = 4.0e7
_CHUNK_POINTS = 1 << 20  # pairs per slice of a shell-table fold, bounding its memory
_INT_TOL = 1e-13  # float noise of the twists Theta q / 2 pi of a rational Theta
# rounding of evaluate, relative to the magnitude summed: a dual term's power beta^alpha
# has an exponent |alpha log beta| of up to about 100 for twists near 1e-12
_ROUND_REL = 2e-14
_DUAL_SWITCH_T = 0.35  # gaussian_sum: the dual side is the cheaper one below this t

# physicists' Hermite polynomials, ascending coefficients, degrees 0..6
_HERMITE = [
    [1],
    [0, 2],
    [-2, 0, 4],
    [0, -12, 0, 8],
    [12, 0, -48, 0, 16],
    [0, 120, 0, -160, 0, 32],
    [-120, 0, 720, 0, -480, 0, 64],
]


class PoleEvaluationError(ValueError):
    """Evaluation was requested at (or too close to) the pole of the series."""


@dataclass(frozen=True)
class TwistedSeries:
    """(dimension, homogeneous numerator polynomial, twist vector)."""

    n: int
    poly: Poly
    twist: tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        twist = self.twist if self.twist is not None else (0.0,) * self.n
        object.__setattr__(self, "twist", tuple(float(x) for x in twist))
        if len(self.twist) != self.n:
            raise ValueError("twist vector length must equal the dimension")
        poly = {tuple(int(x) for x in e): complex(c) for e, c in self.poly.items() if c != 0}
        if not poly:
            raise ValueError("numerator polynomial must be nonzero")
        object.__setattr__(self, "poly", poly)
        for e in poly:
            if len(e) != self.n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
        if not poly_is_homogeneous(poly):
            raise ValueError("numerator polynomial must be homogeneous")
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds supported maximum {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return poly_degree(self.poly)

    @property
    def pole_location(self) -> float:
        return float(self.n + self.degree)

    def constant_coefficient(self) -> complex:
        return self.poly.get((0,) * self.n, 0j)


@dataclass(frozen=True)
class ContinuationResult:
    s: complex
    value: complex
    est_error: float
    method: str
    flags: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class ShiftedResidue:
    """Residue data for s -> sum P(k) |k|^{-(s+shift)}."""

    value: complex
    pole: float            # pole location in s, equal to n + deg - shift
    pole_at_zero: bool
    has_pole: bool
    flags: tuple[str, ...] = field(default=())


def is_integral(twist) -> bool:
    """Whether every entry of a twist vector is an integer, up to rounding."""
    return all(abs(x - round(x)) <= _INT_TOL for x in twist)


def vol_sphere(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) * float(_rgamma(n / 2.0))


def _direct_radius(t: float, n: int, p: int, log_eps: float = _LOG_EPS) -> int:
    """Box radius making the Gaussian tail < e^{-log_eps} of the leading term."""
    c = max(n - 1 + p, 0)
    r = 2.0
    for _ in range(60):
        r_new = math.sqrt((log_eps + t + c * math.log(r + 2.0)) / t)
        if abs(r_new - r) < 1e-9:
            r = r_new
            break
        r = r_new
    return max(1, int(math.ceil(r)))


def check_lattice_box(n: int, radius: int) -> None:
    """Raise MemoryError when a lattice sum over the box |k|_inf <= radius in Z^n is out of range.

    The box may hold at most _MAX_POINTS points, and the table of shells
    |k|^2 <= n radius^2 at most as many entries; the table is the larger one
    only in dimension 1.  Shell sums fold the box axis by axis and never
    enumerate it, so the point count sizes no allocation: it fixes the scale,
    t and degree at which every lattice sum stops with exit code 2.
    """
    side = 2 * radius + 1
    if max(side ** n, n * radius * radius) > _MAX_POINTS:
        raise MemoryError(
            f"lattice sum over ({side})^{n} = {side ** n} points in "
            f"{n * radius * radius + 1} shells exceeds the guard "
            f"of {_MAX_POINTS:.0e}; reduce the scale, t or the polynomial degree")


_NO_SHELLS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))


def _fold(*products):
    """Sum of the convolutions of sparse shell tables, as one sparse shell table.

    A table is (idx, val): integer |k|^2 indices and the values found there.
    Each product is a pair of tables; its convolution adds indices and
    multiplies values over all pairs of entries.  The pairs are built in
    slices of the second table, at most _CHUNK_POINTS pairs a slice, or one
    entry a slice when the first table alone is longer.  Returns the nonzero
    entries of the sum, in increasing index order.
    """
    products = [(a, b) for a, b in products if a[0].size and b[0].size]
    if not products:
        return _NO_SHELLS
    lo = min(a[0][0] + b[0][0] for a, b in products)
    hi = max(a[0][-1] + b[0][-1] for a, b in products)
    out = np.zeros(hi - lo + 1, dtype=complex)
    for (idx, val), (sq, ax) in products:
        step = max(1, _CHUNK_POINTS // idx.size)
        for i in range(0, sq.size, step):
            np.add.at(out, np.add.outer(idx - lo, sq[i:i + step]),
                      np.multiply.outer(val, ax[i:i + step]))
    keep = np.flatnonzero(out)
    return keep + lo, out[keep]


def _lattice_shell_sums(series: TwistedSeries, radius: int, weight_fn):
    """Accumulate sum_k P(k) e^{2 pi i k.a} w(|k|^2) over the box |k|_inf <= radius, by |k|^2.

    Returns (shell_values complex array indexed by |k|^2, boundary_band sum)
    where the boundary band collects |k|_inf in {radius-1, radius}, box(radius)
    minus box(radius - 2), as a tail proxy.  Origin excluded.

    The box is never enumerated.  A monomial c prod k_j^{e_j} factorizes over
    the axes: each axis folds +-k into a table indexed by k^2 holding
    sum_{+-k} k^{e_j} e^{2 pi i k a_j}, and the box sum by |k|^2 is the
    convolution of these tables, taken one axis at a time (`_fold`).  The band
    is folded beside the inner box: a point is in the band once one of its
    coordinates is, so band' = band * axis + inner * outer part of the axis.
    The cost is about n^2 radius^3 pairs per monomial, not (2 radius + 1)^n
    points.  weight_fn is called once, on the occupied shells |k|^2 > 0.
    """
    n = series.n
    check_lattice_box(n, radius)
    m = np.arange(radius + 1)
    mf = m.astype(float)
    sq = m * m
    cut = max(radius - 1, 0)  # entries [:cut] of an axis have |k_j| <= radius - 2
    phases = np.exp(2j * math.pi * np.outer(series.twist, mf))
    shells = np.zeros(n * radius * radius + 1, dtype=complex)
    bands = []
    for e, c in series.poly.items():
        axes = []
        for ph, ej in zip(phases, e):
            ax = mf ** ej * (ph + (-1) ** ej * ph.conj())
            ax[0] = 1.0 if ej == 0 else 0.0  # k_j = 0 is one point, not a +-pair
            axes.append(ax)
        inner, band = (sq[:cut], c * axes[0][:cut]), (sq[cut:], c * axes[0][cut:])
        for ax in axes[1:]:
            inner, band = (_fold((inner, (sq[:cut], ax[:cut]))),
                           _fold((band, (sq, ax)), (inner, (sq[cut:], ax[cut:]))))
        for idx, val in (inner, band):
            shells[idx] += val
        bands.append(band)
    shells[0] = 0.0  # the origin is not a shell
    band_idx = np.concatenate([idx for idx, _ in bands])
    band_val = np.concatenate([val for _, val in bands])[band_idx > 0]
    band_idx = band_idx[band_idx > 0]
    occupied = shells != 0.0
    occupied[band_idx] = True
    occupied = np.flatnonzero(occupied)
    w = weight_fn(occupied)
    shells[occupied] *= w
    return shells, float(np.abs(np.sum(band_val * w[np.searchsorted(occupied, band_idx)])))


def _fsum_complex(values) -> complex:
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def theta_sum(series: TwistedSeries, t: float) -> complex:
    """Direct Gaussian lattice sum sum_{k != 0} P(k) e^{2 pi i k.a} e^{-t |k|^2}."""
    if t <= 0:
        raise ValueError("t must be positive")
    radius = _direct_radius(t, series.n, series.degree)
    shells, _ = _lattice_shell_sums(series, radius, lambda nsq: np.exp(-t * nsq))
    return _fsum_complex(shells[np.nonzero(shells)[0]] if np.any(shells) else [0j])


def _dual_radius(t: float, p: int, log_eps: float = _LOG_EPS) -> float:
    """Ball radius in b = a - m making the dual Gaussian tail negligible."""
    rho = 1.0
    for _ in range(60):
        rho_new = math.sqrt(t * (log_eps + p * math.log(max(math.pi * rho / math.sqrt(t), 2.0)) + 1.0)) / math.pi
        if abs(rho_new - rho) < 1e-9:
            rho = rho_new
            break
        rho = rho_new
    return max(rho, 1e-3)


def _dual_points(series: TwistedSeries, rho: float) -> np.ndarray:
    """All m in Z^n with |a - m| <= rho (Euclidean), as an (N, n) int array."""
    a = np.array(series.twist)
    lo, hi = np.ceil(a - rho).astype(np.int64), np.floor(a + rho).astype(np.int64)
    # the box lo <= m <= hi in lexicographic order, last coordinate fastest
    grid = np.indices(hi - lo + 1).reshape(series.n, -1).T + lo
    b = a[None, :] - grid
    keep = np.sum(b * b, axis=1) <= rho * rho
    return grid[keep]


def poisson_dual(series: TwistedSeries, t: float) -> complex:
    """Dual-representation value of theta_sum via Poisson resummation.

    Each monomial prod k_j^{e_j} contributes
    (pi/t)^{n/2} (i/(2 sqrt(t)))^p sum_m prod_j H_{e_j}(pi b_j / sqrt(t))
    e^{-pi^2 |b|^2 / t} with b = a - m; the k = 0 term of the full lattice
    sum, P(0), is subtracted at the end.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if series.degree > MAX_DEGREE:
        raise ValueError("unsupported degree")
    n = series.n
    p = series.degree
    rho = _dual_radius(t, p)
    pts = _dual_points(series, rho)
    total = 0j
    if pts.shape[0]:
        b = np.array(series.twist)[None, :] - pts
        gauss = np.exp(-(math.pi ** 2) * np.sum(b * b, axis=1) / t)
        sq = math.sqrt(t)
        pref = (math.pi / t) ** (n / 2.0) * (0.5j / sq) ** p
        # c_R is homogeneous of degree R in b, so c_R(b) t^{-R/2} = c_R(b / sqrt(t))
        acc = _hermite_power_coeffs(series, b / sq).sum(axis=0)
        vals = pref * acc * gauss
        order = np.argsort(-gauss)  # largest first, then fsum for stability
        total = _fsum_complex(vals[order])
    return total - series.constant_coefficient()


def gaussian_sum(series: TwistedSeries, t: float) -> complex:
    """Full Gaussian lattice sum sum_{k in Z^n} P(k) e^{2 pi i k.a} e^{-t |k|^2}, k = 0 included.

    The direct box widens as t falls while the dual ball narrows, so the
    direct side serves t >= 0.35 and the Poisson-dual side smaller t.
    """
    side = theta_sum if t >= _DUAL_SWITCH_T else poisson_dual
    return side(series, t) + series.constant_coefficient()


def _pole_coefficient(series: TwistedSeries) -> float:
    """Coefficient kappa of the t^{-(n+p)/2} center term of the dual sum.

    The continued series carries the pole term 2 kappa / (s - n - p); this is
    the Hermite-value route, independent of the gamma-function moment formula.
    """
    n = series.n
    p = series.degree
    kappa = complex(_hermite_power_coeffs(series, np.zeros((1, n)))[0, 0])
    kappa *= math.pi ** (n / 2.0) * (0.5j) ** p
    if abs(kappa.imag) > 1e-12 * max(1.0, abs(kappa.real)):
        # even-degree Hermite zeros keep (i/2)^p Prod H(0) real; odd monomials drop out
        raise AssertionError("pole coefficient should be real")
    return kappa.real


def _hermite_power_coeffs(series: TwistedSeries, b: np.ndarray) -> np.ndarray:
    """Coefficients c_R(b) of t^{-R/2} in sum_e c_e prod_j H_{e_j}(pi b_j / sqrt(t)).

    b holds one point per row, shape (N, n); row R of the (p + 1, N) result
    is c_R at each point.  A homogeneous numerator makes R = p the top power
    of every monomial, and rows R of the other parity than p are zero.
    """
    N = b.shape[0]
    out = np.zeros((series.degree + 1, N), dtype=complex)
    for e, c in series.poly.items():
        acc = np.full((1, N), complex(c))
        for j, ej in enumerate(e):
            if not ej:
                continue
            x = math.pi * b[:, j]
            x2 = x * x
            nxt = np.zeros((acc.shape[0] + ej, N), dtype=complex)
            # H_ej has the parity of ej: only r = ej mod 2, ej mod 2 + 2, ... occur
            xr = x if ej % 2 else 1.0
            for r in range(ej % 2, ej + 1, 2):
                nxt[r:r + acc.shape[0]] += (_HERMITE[ej][r] * xr) * acc
                xr = xr * x2
            acc = nxt
        out += acc
    return out


def evaluate(series: TwistedSeries, s: complex, pole_guard: float = 1e-8) -> ContinuationResult:
    """Analytically continued value of the series at s.

    Mellin split at t = 1: termwise upper incomplete gammas on the direct
    side, Poisson-dual incomplete gammas plus the analytically separated pole
    and constant terms on the small-t side, all divided by Gamma(s/2).
    """
    s = complex(s)
    n = series.n
    p = series.degree
    pole = series.pole_location
    integer_twist = is_integral(series.twist)
    if integer_twist and abs(s - pole) < pole_guard and _pole_coefficient(series) != 0.0:
        raise PoleEvaluationError(
            f"s = {s} is at the pole s = {pole}; use residue() instead")

    # direct side: choose x_max so x^{(p+n)/2-2} e^{-x} is below threshold
    c_exp = max((p + n) / 2.0, 1.0)
    x_max = _LOG_EPS + abs(s.real) / 2.0 * 2.0
    for _ in range(40):
        x_max = _LOG_EPS + max(c_exp + abs(s.real) / 2.0, 1.0) * math.log(x_max + 2.0)
    radius = max(2, int(math.ceil(math.sqrt(x_max))))
    shells, direct_band = _lattice_shell_sums(series, radius, lambda nsq: np.ones(len(nsq)))
    xs = np.nonzero(np.abs(shells) > 0)[0]
    half_s = 0.5 * s
    direct_terms = []
    for x in xs:
        x = float(x)
        direct_terms.append(shells[int(x)] * upper_gamma(half_s, x)
                            * cmath.exp(-half_s * math.log(x)))
    I1 = _fsum_complex(direct_terms) if direct_terms else 0j

    # dual side: points b = a - m with b != 0
    beta_max = _LOG_EPS + (p + 2.0) * math.log(_LOG_EPS + 4.0)
    rho = math.sqrt(beta_max) / math.pi
    b = np.array(series.twist)[None, :] - _dual_points(series, rho)
    bsq = np.sum(b * b, axis=1)
    # the center term of an integral twist is handled analytically as the pole
    keep = bsq > ((10.0 * _INT_TOL) ** 2 if integer_twist else 0.0)
    bsq = bsq[keep].tolist()
    coeffs = _hermite_power_coeffs(series, b[keep]).T.tolist()
    pref = math.pi ** (n / 2.0) * (0.5j) ** p
    dual_terms = []
    dual_band = 0.0
    for x, row in zip(bsq, coeffs):
        beta = math.pi ** 2 * x
        local = 0j
        for r, cr in enumerate(row):
            if cr == 0:
                continue
            alpha = (s - n - p - r) / 2.0
            local += cr * cmath.exp(alpha * math.log(beta)) * upper_gamma(-alpha, beta)
        term = pref * local
        dual_terms.append(term)
        if beta > 0.8 * beta_max:
            dual_band += abs(term)
    D = _fsum_complex(dual_terms) if dual_terms else 0j

    total = I1 + D
    summed = sum(map(abs, direct_terms)) + sum(map(abs, dual_terms))
    flags = []
    if integer_twist:
        kappa = _pole_coefficient(series)
        if kappa != 0.0:
            total += kappa * 2.0 / (s - pole)
            summed += abs(kappa * 2.0 / (s - pole))
            flags.append("pole-term")
    rg = complex(_rgamma(half_s))
    const = series.constant_coefficient() * complex(_rgamma(half_s + 1.0))
    value = total * rg - const
    est = (direct_band * abs(upper_gamma(half_s, float(radius - 1) ** 2))
           * float(radius - 1) ** (-s.real) if radius > 1 else 0.0)
    # cancellation can put the magnitude summed far above |value|
    est = abs(rg) * (est + dual_band) + _ROUND_REL * (abs(rg) * summed + abs(const))
    return ContinuationResult(s=s, value=value, est_error=float(est),
                              method="mellin-split", flags=tuple(flags))


def residue(series: TwistedSeries, s0: complex) -> complex:
    """Residue at the unique candidate pole s0 = n + degree.

    Read off from the analytically separated center term of the Mellin split;
    zero when the twist is not integral (the series is then entire).
    """
    pole = series.pole_location
    if abs(complex(s0) - pole) > 1e-8:
        raise ValueError(f"s0 = {s0} is not the candidate pole s = {pole}")
    if not is_integral(series.twist):
        return 0j
    kappa = _pole_coefficient(series)
    return complex(kappa * 2.0 * float(_rgamma(pole / 2.0)))


def residue_shifted(n: int, poly: Poly, shift: float) -> ShiftedResidue:
    """Residue data of s -> sum_{k != 0} P(k) |k|^{-(s+shift)} over Z^n.

    By the change of variable the family has a single candidate pole at
    s = n + deg(P) - shift with the same residue as the unshifted series at
    its own pole.  When the shift does not place the pole at the origin the
    location is reported rather than silently moved.
    """
    series = TwistedSeries(n, poly)
    res = residue(series, series.pole_location)
    pole_s = series.pole_location - float(shift)
    flags = []
    if res == 0:
        flags.append("no-pole")
    elif abs(pole_s) > 1e-12:
        flags.append(f"pole-at-s={pole_s:g}")
    return ShiftedResidue(value=res, pole=pole_s,
                          pole_at_zero=abs(pole_s) <= 1e-12 and res != 0,
                          has_pole=res != 0, flags=tuple(flags))


def sphere_integral(poly: Poly, n: int) -> complex:
    """Moment integral of a polynomial over the unit sphere in R^n.

    Gamma-function route: a monomial prod u_j^{e_j} integrates to
    2 prod Gamma((e_j+1)/2) / Gamma((n + deg)/2) when every exponent is even,
    and to zero otherwise.
    """
    total = 0j
    for e, c in poly.items():
        if any(ej % 2 for ej in e):
            continue
        num = 2.0
        for ej in e:
            num *= float(_gamma((ej + 1) / 2.0))
        total += c * num * float(_rgamma((n + sum(e)) / 2.0))
    return total


def zeta_D(s: complex, n: int, pole_guard: float = 1e-8) -> complex:
    """Spectral zeta of the flat Dirac operator on the n-torus.

    Equals 2^m sum_{k != 0} |k|^{-s} + 2^m, the additive constant being the
    kernel dimension.
    """
    if abs(complex(s) - n) < pole_guard:
        raise PoleEvaluationError(f"s = {s} is the pole of the dimension-{n} series")
    m = n // 2
    zn = TwistedSeries(n, {(0,) * n: 1.0})
    return (2 ** m) * evaluate(zn, s).value + (2 ** m)


def zeta_D_residue(n: int) -> float:
    """Residue of the Dirac spectral zeta at s = n: 2^m vol(S^{n-1})."""
    zn = TwistedSeries(n, {(0,) * n: 1.0})
    return (2 ** (n // 2)) * residue(zn, n).real


def twisted_family_residue(terms, poly: Poly, n: int) -> complex:
    """Residue at s = n + deg(P) of a finite twisted family sum_l c_l f_{a_l}.

    Only terms whose twist vector is integral contribute; each contributes its
    coefficient times the sphere moment of P.
    """
    kernel_sum = 0j
    for c, twist in terms:
        tw = tuple(float(x) for x in twist)
        if len(tw) != n:
            raise ValueError("twist vector length mismatch")
        if is_integral(tw):
            kernel_sum += complex(c)
    return kernel_sum * sphere_integral(poly, n)
