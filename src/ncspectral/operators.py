"""Mode-level operators on the spinor space over the deformed torus.

Operators act on the basis {U_k (x) e_i : k in Z^n, i < 2^m} and are stored
exactly as rules sending a basis index to a finite list of (k', i', amplitude)
outputs with a declared spread radius in k.  Truncation happens only when a
rule is assembled on a finite mode window, so the algebraic identities
(gauge covariance, squared-operator expansion, pure-gauge cancellation) hold
at coefficient level and the window matrices serve purely as numerical oracles.

The reality operator is never materialized: every conjugation by it is
rewritten through the identity that sends left multiplication tensored with a
gamma to minus the right multiplication by the adjoint, which is what makes
the covariant operator equal -i (delta_a + L(A_a) - R(A_a)) (x) gamma^a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .clifford import build_gamma
from .weyl import (
    DeformationMatrix,
    FourierElement,
    adjoint,
    derivation,
    multiply,
)

__all__ = [
    "OneForm",
    "ModeWindow",
    "ModeMap",
    "WindowError",
    "dirac",
    "left_rep",
    "right_rep",
    "represented_one_form",
    "covariant_dirac",
    "pure_gauge_check",
    "gauge_transform",
    "conjugate_by_Vu",
    "square_expansion_check",
    "kernel_projector",
    "assemble_sparse",
    "assemble_dense",
    "spectrum",
    "export_spectrum",
]

DEFAULT_BASIS_LIMIT = 200_000


class WindowError(RuntimeError):
    """A window was too small or too large for the requested operation."""


@dataclass(frozen=True)
class OneForm:
    """Gauge potential: n anti-selfadjoint algebra elements, one per axis."""

    components: tuple[FourierElement, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("one-form needs at least one component")
        n = comps[0].dim
        if len(comps) != n:
            raise ValueError(f"expected {n} components for dimension {n}, got {len(comps)}")
        for a, c in enumerate(comps):
            if c.dim != n:
                raise ValueError("mixed dimensions in one-form components")
            if adjoint(c).distance(-c) > 1e-12 * max(1.0, c.norm_inf()):
                raise ValueError(f"component {a + 1} is not anti-selfadjoint")

    @property
    def n(self) -> int:
        return self.components[0].dim

    @property
    def spread(self) -> int:
        return max(c.spread for c in self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    @classmethod
    def zero(cls, n: int) -> "OneForm":
        return cls(tuple(FourierElement.zero(n) for _ in range(n)))

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[int, Sequence[int], complex]]) -> "OneForm":
        """Build from (axis, lattice point, coefficient) triples, 1-based axes.

        Each term z U_k is symmetrized to z U_k - conj(z) U_{-k} so the result
        is anti-selfadjoint by construction.
        """
        comps = [FourierElement.zero(n) for _ in range(n)]
        for axis, k, z in terms:
            if not 1 <= axis <= n:
                raise ValueError(f"axis {axis} out of range 1..{n}")
            z = complex(z)
            kk = tuple(int(c) for c in k)
            mk = tuple(-c for c in kk)
            comps[axis - 1] = comps[axis - 1] + FourierElement(n, {kk: z}) \
                + FourierElement(n, {mk: -z.conjugate()})
        return cls(tuple(comps))


class ModeWindow:
    """Finite set of lattice modes: all k with |k| <= K in the chosen norm."""

    def __init__(self, n: int, K: int, shape: str = "max", spinor_dim: int | None = None):
        if K < 0:
            raise ValueError("cutoff K must be >= 0")
        if shape not in ("max", "euclid"):
            raise ValueError("shape must be 'max' or 'euclid'")
        self.n = n
        self.K = int(K)
        self.shape = shape
        self.spinor_dim = spinor_dim if spinor_dim is not None else 2 ** (n // 2)
        rng = range(-self.K, self.K + 1)
        pts = []
        for idx in np.ndindex(*(2 * self.K + 1,) * n):
            k = tuple(rng[i] for i in idx)
            if shape == "euclid" and sum(c * c for c in k) > self.K ** 2:
                continue
            pts.append(k)
        pts.sort()
        self.points: list[tuple[int, ...]] = pts
        self._pos = {k: j for j, k in enumerate(pts)}

    @property
    def basis_size(self) -> int:
        return len(self.points) * self.spinor_dim

    def contains(self, k: tuple[int, ...]) -> bool:
        return k in self._pos

    def index(self, k: tuple[int, ...], i: int) -> int:
        return self._pos[k] * self.spinor_dim + i

    def basis(self):
        for k in self.points:
            for i in range(self.spinor_dim):
                yield k, i

    def __repr__(self) -> str:
        return f"ModeWindow(n={self.n}, K={self.K}, shape={self.shape!r}, basis={self.basis_size})"


Rule = Callable[[tuple[int, ...], int], list[tuple[tuple[int, ...], int, complex]]]


@dataclass(frozen=True)
class ModeMap:
    """Exact linear operator given by a rule on basis indices.

    `spread` bounds the max-norm shift in k any output can have relative to
    the input; composition adds spreads and addition takes the max.
    """

    dim: int
    spinor_dim: int
    spread: int
    rule: Rule = field(repr=False)

    def apply_basis(self, k: tuple[int, ...], i: int) -> list[tuple[tuple[int, ...], int, complex]]:
        return self.rule(tuple(int(c) for c in k), int(i))

    def __add__(self, other: "ModeMap") -> "ModeMap":
        self._check(other)

        def rule(k, i, A=self.rule, B=other.rule):
            acc: dict = {}
            for k2, i2, amp in list(A(k, i)) + list(B(k, i)):
                key = (k2, i2)
                acc[key] = acc.get(key, 0j) + amp
            return [(k2, i2, v) for (k2, i2), v in acc.items() if v != 0]

        return ModeMap(self.dim, self.spinor_dim, max(self.spread, other.spread), rule)

    def __sub__(self, other: "ModeMap") -> "ModeMap":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ModeMap":
        s = complex(scalar)

        def rule(k, i, A=self.rule):
            return [(k2, i2, s * amp) for k2, i2, amp in A(k, i)]

        return ModeMap(self.dim, self.spinor_dim, self.spread, rule)

    __rmul__ = __mul__

    def __matmul__(self, other: "ModeMap") -> "ModeMap":
        """Composition self after other."""
        self._check(other)

        def rule(k, i, A=self.rule, B=other.rule):
            acc: dict = {}
            for k1, i1, amp1 in B(k, i):
                for k2, i2, amp2 in A(k1, i1):
                    key = (k2, i2)
                    acc[key] = acc.get(key, 0j) + amp1 * amp2
            return [(k2, i2, v) for (k2, i2), v in acc.items() if v != 0]

        return ModeMap(self.dim, self.spinor_dim, self.spread + other.spread, rule)

    def _check(self, other: "ModeMap") -> None:
        if self.dim != other.dim or self.spinor_dim != other.spinor_dim:
            raise ValueError("mode map shape mismatch")

    @classmethod
    def identity(cls, dim: int, spinor_dim: int) -> "ModeMap":
        return cls(dim, spinor_dim, 0, lambda k, i: [(k, i, 1.0 + 0j)])

    @classmethod
    def zero(cls, dim: int, spinor_dim: int) -> "ModeMap":
        return cls(dim, spinor_dim, 0, lambda k, i: [])

    def max_deviation(self, other: "ModeMap", window: ModeWindow) -> float:
        """Max output-amplitude deviation over all basis inputs in a window.

        Exact comparison: outputs are compared as coefficient maps, without
        truncating amplitudes that leave the window.
        """
        self._check(other)
        worst = 0.0
        for k, i in window.basis():
            a: dict = {}
            for k2, i2, amp in self.rule(k, i):
                a[(k2, i2)] = a.get((k2, i2), 0j) + amp
            for k2, i2, amp in other.rule(k, i):
                a[(k2, i2)] = a.get((k2, i2), 0j) - amp
            if a:
                worst = max(worst, max(abs(v) for v in a.values()))
        return worst


def _spinor_matrix_map(dim: int, mat: np.ndarray) -> ModeMap:
    """1 (x) mat acting on the spinor factor only."""
    sdim = mat.shape[0]
    cols = [[(r, mat[r, c]) for r in range(sdim) if mat[r, c] != 0] for c in range(sdim)]

    def rule(k, i):
        return [(k, r, amp) for r, amp in cols[i]]

    return ModeMap(dim, sdim, 0, rule)


def dirac(n: int) -> ModeMap:
    """The flat Dirac operator: (k, i) -> sum_mu k_mu gamma^mu column i at the same k."""
    gs = build_gamma(n)
    gammas = gs.gammas
    sdim = gs.spinor_dim

    def rule(k, i):
        col = np.zeros(sdim, dtype=complex)
        for mu in range(n):
            if k[mu]:
                col += k[mu] * gammas[mu][:, i]
        return [(k, r, col[r]) for r in range(sdim) if col[r] != 0]

    return ModeMap(n, sdim, 0, rule)


def left_rep(a: FourierElement, theta: DeformationMatrix, spinor_dim: int | None = None) -> ModeMap:
    """L(a) (x) 1: U_k -> a U_k expanded through the product rule."""
    if a.dim != theta.n:
        raise ValueError("dimension mismatch between element and deformation matrix")
    sdim = spinor_dim if spinor_dim is not None else 2 ** (a.dim // 2)
    terms = list(a.items())

    def rule(k, i):
        out = []
        for h, v in terms:
            phi = -0.5 * theta.bilinear(h, k)
            out.append((tuple(hi + ki for hi, ki in zip(h, k)), i,
                        v * complex(math.cos(phi), math.sin(phi))))
        return out

    return ModeMap(a.dim, sdim, a.spread, rule)


def right_rep(a: FourierElement, theta: DeformationMatrix, spinor_dim: int | None = None) -> ModeMap:
    """R(a) (x) 1: U_k -> U_k a expanded through the product rule."""
    if a.dim != theta.n:
        raise ValueError("dimension mismatch between element and deformation matrix")
    sdim = spinor_dim if spinor_dim is not None else 2 ** (a.dim // 2)
    terms = list(a.items())

    def rule(k, i):
        out = []
        for h, v in terms:
            phi = -0.5 * theta.bilinear(k, h)
            out.append((tuple(ki + hi for ki, hi in zip(k, h)), i,
                        v * complex(math.cos(phi), math.sin(phi))))
        return out

    return ModeMap(a.dim, sdim, a.spread, rule)


def represented_one_form(A: OneForm, theta: DeformationMatrix) -> ModeMap:
    """The operator sum_a L(-i A_a) (x) gamma^a (the plain, unsymmetrized potential)."""
    gs = build_gamma(A.n)
    total = ModeMap.zero(A.n, gs.spinor_dim)
    for a_idx, comp in enumerate(A.components):
        if comp.is_zero():
            continue
        total = total + (_spinor_matrix_map(A.n, gs.gammas[a_idx])
                         @ left_rep(-1j * comp, theta, gs.spinor_dim))
    return total


def covariant_dirac(A: OneForm, theta: DeformationMatrix) -> ModeMap:
    """Covariant Dirac operator -i (delta_a + L(A_a) - R(A_a)) (x) gamma^a.

    On a basis mode the hopping amplitude along shift h of component a is
    -2 (A_a)_h sin(1/2 h.Theta k) gamma^a, and the diagonal part is the flat
    operator k_mu gamma^mu.
    """
    n = A.n
    if n != theta.n:
        raise ValueError("one-form and deformation matrix dimensions differ")
    gs = build_gamma(n)
    gammas = gs.gammas
    sdim = gs.spinor_dim
    hops = [(a_idx, h, v) for a_idx, comp in enumerate(A.components) for h, v in comp.items()]

    def rule(k, i):
        col = np.zeros(sdim, dtype=complex)
        for mu in range(n):
            if k[mu]:
                col += k[mu] * gammas[mu][:, i]
        out = [(k, r, col[r]) for r in range(sdim) if col[r] != 0]
        for a_idx, h, v in hops:
            s = math.sin(0.5 * theta.bilinear(h, k))
            amp0 = -2.0 * v * s
            if amp0 == 0:
                continue
            k2 = tuple(hi + ki for hi, ki in zip(h, k))
            gcol = gammas[a_idx][:, i]
            for r in range(sdim):
                if gcol[r] != 0:
                    out.append((k2, r, amp0 * gcol[r]))
        return out

    return ModeMap(n, sdim, A.spread, rule)


def _delta_map(n: int, axis: int, spinor_dim: int) -> ModeMap:
    """delta_axis (x) 1 as a mode map (1-based axis)."""
    idx = axis - 1

    def rule(k, i):
        if k[idx] == 0:
            return []
        return [(k, i, 1j * k[idx])]

    return ModeMap(n, spinor_dim, 0, rule)


def pure_gauge_check(k, n: int, theta: DeformationMatrix, window_K: int = 2) -> float:
    """Max deviation of L(U_k)[D, L(U_k)*] from 1 (x) (-k_mu gamma^mu) on a probe window."""
    gs = build_gamma(n)
    u = FourierElement.unit(n, k)
    D = dirac(n)
    Lu = left_rep(u, theta, gs.spinor_dim)
    Lustar = left_rep(adjoint(u), theta, gs.spinor_dim)
    lhs = Lu @ (D @ Lustar - Lustar @ D)
    mat = -sum(int(ki) * gs.gammas[mu] for mu, ki in enumerate(k)) \
        if any(int(c) for c in k) else np.zeros((gs.spinor_dim, gs.spinor_dim), dtype=complex)
    rhs = _spinor_matrix_map(n, mat)
    window = ModeWindow(n, window_K, spinor_dim=gs.spinor_dim)
    return lhs.max_deviation(rhs, window)


def _require_unitary(u: FourierElement, theta: DeformationMatrix, tol: float = 1e-12) -> None:
    one = FourierElement.unit(u.dim, (0,) * u.dim)
    if multiply(u, adjoint(u), theta).distance(one) > tol or \
            multiply(adjoint(u), u, theta).distance(one) > tol:
        raise ValueError("element is not unitary to within tolerance")


def gauge_transform(u: FourierElement, A: OneForm, theta: DeformationMatrix) -> OneForm:
    """Gauge-transformed potential: components u delta_a(u*) + u A_a u*."""
    _require_unitary(u, theta)
    ustar = adjoint(u)
    comps = []
    for a_idx in range(A.n):
        pure = multiply(u, derivation(ustar, a_idx + 1), theta)
        rotated = multiply(multiply(u, A.components[a_idx], theta), ustar, theta)
        comps.append(pure + rotated)
    return OneForm(tuple(comps))


def _vu_map(u: FourierElement, theta: DeformationMatrix, spinor_dim: int) -> ModeMap:
    """Inner gauge unitary realized as L(u) R(u*) on the algebra factor."""
    return left_rep(u, theta, spinor_dim) @ right_rep(adjoint(u), theta, spinor_dim)


def conjugate_by_Vu(T: ModeMap, u: FourierElement, theta: DeformationMatrix) -> ModeMap:
    """V_u T V_u* with V_u = L(u) R(u*) (x) 1."""
    _require_unitary(u, theta)
    Vu = _vu_map(u, theta, T.spinor_dim)
    Vustar = _vu_map(adjoint(u), theta, T.spinor_dim)
    return Vu @ T @ Vustar


def square_expansion_check(A: OneForm, theta: DeformationMatrix, window_K: int = 2) -> float:
    """Max deviation between D_A composed with itself and its closed expansion.

    The reference side is -sum_a (delta_a + L(A_a) - R(A_a))^2 (x) 1 minus one
    half of (L - R) of the curvature tensored with the antisymmetrized gamma
    pairs.
    """
    from .weyl import field_strength  # local import to keep module load light

    n = A.n
    gs = build_gamma(n)
    sdim = gs.spinor_dim
    DA = covariant_dirac(A, theta)
    lhs = DA @ DA

    rhs = ModeMap.zero(n, sdim)
    for a_idx in range(n):
        comp = A.components[a_idx]
        op = _delta_map(n, a_idx + 1, sdim)
        if not comp.is_zero():
            op = op + left_rep(comp, theta, sdim) - right_rep(comp, theta, sdim)
        rhs = rhs + (-1.0) * (op @ op)
    F = field_strength(A, theta)
    for a1 in range(n):
        for a2 in range(a1 + 1, n):
            Fab = F[a1][a2]
            if Fab.is_zero():
                continue
            pair = gs.gammas[a1] @ gs.gammas[a2]  # antisymmetrized pair collapses for a1 != a2
            lr = left_rep(Fab, theta, sdim) - right_rep(Fab, theta, sdim)
            # both (a1, a2) and (a2, a1) orderings contribute equally
            rhs = rhs + (-1.0) * (_spinor_matrix_map(n, pair) @ lr)

    window = ModeWindow(n, window_K, spinor_dim=sdim)
    return lhs.max_deviation(rhs, window)


def assemble_sparse(T: ModeMap, window: ModeWindow, basis_limit: int = DEFAULT_BASIS_LIMIT,
                    require_margin: bool = False) -> csr_matrix:
    """Compress T to the window basis as a sparse complex matrix.

    This is the one place a mode map is evaluated over a window basis.
    Columns whose input mode sits within `spread` of the window boundary lose
    amplitude to outside modes; with require_margin=True such windows are
    rejected instead of silently truncated.
    """
    if window.basis_size > basis_limit:
        raise WindowError(
            f"window basis size {window.basis_size} exceeds limit {basis_limit}")
    if require_margin and window.K < T.spread:
        raise WindowError("window margin smaller than operator spread")
    rows, cols, vals = [], [], []
    for k, i in window.basis():
        col = window.index(k, i)
        for k2, i2, amp in T.apply_basis(k, i):
            if window.contains(k2):
                rows.append(window.index(k2, i2))
                cols.append(col)
                vals.append(amp)
    N = window.basis_size
    return csr_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(N, N))


def assemble_dense(T: ModeMap, window: ModeWindow, basis_limit: int = DEFAULT_BASIS_LIMIT,
                   require_margin: bool = False) -> np.ndarray:
    """Compress T to the window basis as a dense complex matrix (see assemble_sparse)."""
    return assemble_sparse(T, window, basis_limit, require_margin).toarray()


def spectrum(T: ModeMap, window: ModeWindow, basis_limit: int = DEFAULT_BASIS_LIMIT,
             hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues (ascending) of the dense window compression of a hermitian map."""
    if window.basis_size == 0:
        return np.zeros(0)
    mat = assemble_dense(T, window, basis_limit=basis_limit)
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    scale = max(1.0, float(np.max(np.abs(mat)))) if mat.size else 1.0
    if dev > hermiticity_tol * scale:
        raise WindowError(f"window compression is not hermitian: deviation {dev:.3e}")
    return np.linalg.eigvalsh(mat)


def export_spectrum(eigs, path, fmt: str = "csv") -> None:
    """Write eigenvalues to disk, one per line (csv) or as a JSON array."""
    import json as _json

    vals = [float(x) for x in eigs]
    with open(path, "w") as fh:
        if fmt == "csv":
            for v in vals:
                fh.write(format(v, ".17g") + "\n")
        elif fmt == "json":
            fh.write(_json.dumps(vals) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")


def kernel_projector(T: ModeMap, window: ModeWindow, tol: float = 1e-10,
                     basis_limit: int = DEFAULT_BASIS_LIMIT) -> tuple[np.ndarray, int]:
    """Numerical kernel of the window compression: (projector matrix, dimension).

    Kernel vectors carrying more than `tol` relative mass on the outermost
    mode shell indicate the window cannot separate the kernel; that raises
    WindowError rather than returning a silently wrong answer.
    """
    mat = assemble_dense(T, window, basis_limit=basis_limit)
    vals, vecs = np.linalg.eigh(mat)
    scale = max(np.max(np.abs(vals)), 1e-30)
    sel = np.abs(vals) < tol * scale
    dim = int(np.count_nonzero(sel))
    kvecs = vecs[:, sel]
    if dim and window.K > 0:
        boundary = [window.index(k, i) for k, i in window.basis()
                    if max(abs(c) for c in k) == window.K]
        mass = np.sum(np.abs(kvecs[boundary, :]) ** 2, axis=0)
        if np.any(mass > tol):
            raise WindowError(
                "kernel candidates touch the window boundary; enlarge the window")
    proj = kvecs @ kvecs.conj().T
    return proj, dim
