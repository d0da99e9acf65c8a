"""Mode-level operators on the spinor space over the deformed torus.

Operators act on the basis {U_k (x) e_i : k in Z^n, i < 2^m} and are stored
exactly as batch maps: given M basis inputs as arrays k (M, n) and i (M,),
a map returns every output as arrays (src, k', i', amp), where src names the
input row each output came from, and it declares a spread radius in k.  Sums
concatenate outputs, compositions feed the outputs of one map into the next
and sum repeated (src, k', i') labels, so a whole window basis is evaluated in
a few array operations.  Truncation happens only when a map is assembled on a
finite mode window, so the algebraic identities (gauge covariance,
squared-operator expansion, pure-gauge cancellation) hold at coefficient
level and the window matrices serve purely as numerical oracles.  A window
is an array too: its modes form one (M, n) int64 grid in lexicographic
order, assembly evaluates a map once on the window's basis arrays, and
`positions` places every output mode in one search over packed keys.

The reality operator is never materialized: every conjugation by it is
rewritten through the identity that sends left multiplication tensored with a
gamma to minus the right multiplication by the adjoint, which is what makes
the covariant operator equal -i (delta_a + L(A_a) - R(A_a)) (x) gamma^a.
"""

from __future__ import annotations

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
    "covariant_dirac",
    "pure_gauge_check",
    "gauge_transform",
    "conjugate_by_Vu",
    "square_expansion_check",
    "assemble_sparse",
    "assemble_dense",
    "spectrum",
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
    """Finite set of lattice modes: all k with |k| <= K in the chosen norm.

    `grid` holds them as an (M, n) int64 array in lexicographic order.
    """

    def __init__(self, n: int, K: int, shape: str = "max", spinor_dim: int | None = None):
        if K < 0:
            raise ValueError("cutoff K must be >= 0")
        if shape not in ("max", "euclid"):
            raise ValueError("shape must be 'max' or 'euclid'")
        if spinor_dim is not None and spinor_dim < 1:
            raise ValueError("spinor_dim must be >= 1")
        self.n = n
        self.K = int(K)
        self.shape = shape
        self.spinor_dim = spinor_dim if spinor_dim is not None else 2 ** (n // 2)
        grid = np.indices((2 * self.K + 1,) * n, dtype=np.int64).reshape(n, -1).T - self.K
        if shape == "euclid":
            grid = grid[np.sum(grid * grid, axis=1) <= self.K ** 2]
        self.grid = np.ascontiguousarray(grid)
        self._keys = self._pack(self.grid)  # ascending, as the grid is sorted

    def _pack(self, ks: np.ndarray) -> np.ndarray:
        """One int64 key per row of in-box points, in lexicographic order."""
        key = np.zeros(len(ks), dtype=np.int64)
        for c in range(self.n):
            key = key * (2 * self.K + 1) + (ks[:, c] + self.K)
        return key

    @property
    def basis_size(self) -> int:
        return len(self.grid) * self.spinor_dim

    def basis_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis as int64 arrays k (N, n) and i (N,); row j * spinor_dim + i is (grid[j], i)."""
        s = self.spinor_dim
        return np.repeat(self.grid, s, axis=0), np.tile(np.arange(s, dtype=np.int64), len(self.grid))

    def positions(self, ks: np.ndarray) -> np.ndarray:
        """Row in `grid` of each row of ks (M, n), -1 for modes outside the window."""
        if ks.shape[1] != self.n:
            raise ValueError(f"lattice points must have length {self.n}")
        inside = np.all(np.abs(ks) <= self.K, axis=1)
        key = self._pack(np.clip(ks, -self.K, self.K))
        j = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        return np.where(inside & (self._keys[j] == key), j, -1)

    def __repr__(self) -> str:
        return f"ModeWindow(n={self.n}, K={self.K}, shape={self.shape!r}, basis={self.basis_size})"


# (src, k', i', amp): output j comes from input row src[j] and carries amp[j] on U_k'[j] (x) e_i'[j]
Outputs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
Batch = Callable[[np.ndarray, np.ndarray], Outputs]


def _empty(dim: int) -> Outputs:
    return (np.zeros(0, dtype=np.int64), np.zeros((0, dim), dtype=np.int64),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))


def _concat(parts: Sequence[Outputs]) -> Outputs:
    return tuple(np.concatenate(col) for col in zip(*parts))


def _reduce(out: Outputs) -> Outputs:
    """Sum the amplitudes of equal (src, k', i') labels and drop exact zeros.

    Labels are packed into one int64 key per output; the survivors come in
    lexicographic label order.
    """
    src, ks, idx, amp = out
    if not src.size:
        return out
    key = np.zeros(src.size, dtype=np.int64)
    size = 1
    for col in (src, *ks.T, idx):
        lo, hi = int(col.min()), int(col.max())
        size *= hi - lo + 1
        if size >= 2 ** 63:
            raise OverflowError("output labels span too wide a range to pack into int64 keys")
        key *= hi - lo + 1
        key += col - lo
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    first = order[starts]
    total = amp[first] if starts.size == key.size else np.add.reduceat(amp[order], starts)
    keep = total != 0
    sel = first[keep]
    return src[sel], ks[sel], idx[sel], total[keep]


@dataclass(frozen=True)
class ModeMap:
    """Exact linear operator evaluated on whole arrays of basis inputs.

    `batch(k, i)` takes M inputs U_k (x) e_i as int64 arrays k (M, n) and
    i (M,) and returns all their outputs (src, k', i', amp), src being the
    input row of each output; a label may repeat, and repeated amplitudes add.
    Nothing is truncated.  `batch` is the map's only definition: sums,
    scalings and compositions build new batch functions from old ones.
    `spread` bounds the max-norm shift in k any output can have relative to
    the input; composition adds spreads and addition takes the max.
    """

    dim: int
    spinor_dim: int
    spread: int
    batch: Batch = field(repr=False)

    def apply_basis(self, k: tuple[int, ...], i: int) -> list[tuple[tuple[int, ...], int, complex]]:
        """Outputs of one basis input, repeated labels summed and exact zeros dropped."""
        ks = np.array([[int(c) for c in k]], dtype=np.int64)
        _, k2, i2, amp = _reduce(self.batch(ks, np.array([int(i)], dtype=np.int64)))
        return [(tuple(kk), ii, a) for kk, ii, a in zip(k2.tolist(), i2.tolist(), amp.tolist())]

    def __add__(self, other: "ModeMap") -> "ModeMap":
        self._check(other)

        def batch(ks, idx, A=self.batch, B=other.batch):
            return _concat([A(ks, idx), B(ks, idx)])

        return ModeMap(self.dim, self.spinor_dim, max(self.spread, other.spread), batch=batch)

    def __sub__(self, other: "ModeMap") -> "ModeMap":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ModeMap":
        s = complex(scalar)

        def batch(ks, idx, A=self.batch):
            src, k2, i2, amp = A(ks, idx)
            return src, k2, i2, s * amp

        return ModeMap(self.dim, self.spinor_dim, self.spread, batch=batch)

    __rmul__ = __mul__

    def __matmul__(self, other: "ModeMap") -> "ModeMap":
        """Composition self after other."""
        self._check(other)

        def batch(ks, idx, A=self.batch, B=other.batch):
            src1, k1, i1, amp1 = B(ks, idx)
            src2, k2, i2, amp2 = A(k1, i1)
            return _reduce((src1[src2], k2, i2, amp1[src2] * amp2))

        return ModeMap(self.dim, self.spinor_dim, self.spread + other.spread, batch=batch)

    def _check(self, other: "ModeMap") -> None:
        if self.dim != other.dim or self.spinor_dim != other.spinor_dim:
            raise ValueError("mode map shape mismatch")

    @classmethod
    def identity(cls, dim: int, spinor_dim: int) -> "ModeMap":
        return cls(dim, spinor_dim, 0, batch=lambda ks, idx: (
            np.arange(idx.size), ks, idx, np.ones(idx.size, dtype=complex)))

    @classmethod
    def zero(cls, dim: int, spinor_dim: int) -> "ModeMap":
        return cls(dim, spinor_dim, 0, batch=lambda ks, idx: _empty(dim))

    def max_deviation(self, other: "ModeMap", window: ModeWindow) -> float:
        """Max output-amplitude deviation over all basis inputs in a window.

        Exact comparison: outputs are compared as coefficient maps, without
        truncating amplitudes that leave the window.
        """
        self._check(other)
        ks, idx = window.basis_arrays()
        src, k2, i2, amp = other.batch(ks, idx)
        diff = _reduce(_concat([self.batch(ks, idx), (src, k2, i2, -amp)]))[3]
        return float(np.max(np.abs(diff))) if diff.size else 0.0


def _spinor_factor(mat: np.ndarray):
    """Apply 1 (x) mat to outputs: (src, k, i, amp) -> (src, k, r, amp * mat[r, i]), nonzero only."""
    cols = mat.T

    def expand(src, ks, idx, amp):
        full = amp[:, None] * cols[idx]
        j, r = np.nonzero(full)
        return src[j], ks[j], r, full[j, r]

    return expand


def _spinor_matrix_map(dim: int, mat: np.ndarray) -> ModeMap:
    """1 (x) mat acting on the spinor factor only."""
    expand = _spinor_factor(mat)
    return ModeMap(dim, mat.shape[0], 0, batch=lambda ks, idx: expand(
        np.arange(idx.size), ks, idx, np.ones(idx.size, dtype=complex)))


def _flat_dirac_batch(gammas) -> Batch:
    """(k, i) -> sum_mu k_mu gamma^mu column i at the same k, exact zeros dropped."""
    rows_by_col = [g.T for g in gammas]

    def batch(ks, idx):
        cols = np.zeros((idx.size, gammas[0].shape[0]), dtype=complex)
        for mu, g in enumerate(rows_by_col):
            cols += ks[:, mu, None] * g[idx]
        src, r = np.nonzero(cols)
        return src, ks[src], r, cols[src, r]

    return batch


def _hops(ks: np.ndarray, idx: np.ndarray, shifts: np.ndarray, amp: np.ndarray) -> Outputs:
    """Outputs (m, k_m + shifts_t, i_m, amp[m, t]) for the nonzero entries of amp (M, T)."""
    src, t = np.nonzero(amp)
    return src, ks[src] + shifts[t], idx[src], amp[src, t]


def _terms(a: FourierElement) -> tuple[np.ndarray, np.ndarray]:
    """Support (T, n) int64 and coefficients (T,) of an element, in sorted order."""
    terms = list(a.items())
    return (np.array([h for h, _ in terms], dtype=np.int64).reshape(-1, a.dim),
            np.array([v for _, v in terms], dtype=complex))


def dirac(n: int) -> ModeMap:
    """The flat Dirac operator: (k, i) -> sum_mu k_mu gamma^mu column i at the same k."""
    gs = build_gamma(n)
    return ModeMap(n, gs.spinor_dim, 0, batch=_flat_dirac_batch(gs.gammas))


def _product_map(a: FourierElement, theta: DeformationMatrix, spinor_dim: int | None,
                 left: bool) -> ModeMap:
    if a.dim != theta.n:
        raise ValueError("dimension mismatch between element and deformation matrix")
    sdim = spinor_dim if spinor_dim is not None else 2 ** (a.dim // 2)
    shifts, coeffs = _terms(a)

    def batch(ks, idx):
        k = ks[:, None, :]
        form = theta.bilinear_batch(shifts, k) if left else theta.bilinear_batch(k, shifts)
        return _hops(ks, idx, shifts, coeffs * np.exp(-0.5j * form))

    return ModeMap(a.dim, sdim, a.spread, batch=batch)


def left_rep(a: FourierElement, theta: DeformationMatrix, spinor_dim: int | None = None) -> ModeMap:
    """L(a) (x) 1: U_k -> a U_k expanded through the product rule."""
    return _product_map(a, theta, spinor_dim, left=True)


def right_rep(a: FourierElement, theta: DeformationMatrix, spinor_dim: int | None = None) -> ModeMap:
    """R(a) (x) 1: U_k -> U_k a expanded through the product rule."""
    return _product_map(a, theta, spinor_dim, left=False)


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
    flat = _flat_dirac_batch(gs.gammas)
    comps = [(_spinor_factor(gs.gammas[a_idx]), *_terms(comp))
             for a_idx, comp in enumerate(A.components) if not comp.is_zero()]

    def batch(ks, idx):
        parts = [flat(ks, idx)]
        for expand, shifts, coeffs in comps:
            amp = -2.0 * coeffs * np.sin(0.5 * theta.bilinear_batch(shifts, ks[:, None, :]))
            parts.append(expand(*_hops(ks, idx, shifts, amp)))
        return _concat(parts)

    return ModeMap(n, gs.spinor_dim, A.spread, batch=batch)


def _delta_map(n: int, axis: int, spinor_dim: int) -> ModeMap:
    """delta_axis (x) 1 as a mode map (1-based axis)."""
    col = axis - 1

    def batch(ks, idx):
        src = np.flatnonzero(ks[:, col])
        return src, ks[src], idx[src], 1j * ks[src, col]

    return ModeMap(n, spinor_dim, 0, batch=batch)


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

    This is the one place a mode map becomes a window matrix, from one batch
    call over the whole window basis.
    Columns whose input mode sits within `spread` of the window boundary lose
    amplitude to outside modes; with require_margin=True such windows are
    rejected instead of silently truncated.
    """
    if window.basis_size > basis_limit:
        raise WindowError(
            f"window basis size {window.basis_size} exceeds limit {basis_limit}")
    if require_margin and window.K < T.spread:
        raise WindowError("window margin smaller than operator spread")
    ks, idx = window.basis_arrays()
    src, k2, i2, amp = T.batch(ks, idx)
    pos = window.positions(k2)
    keep = (pos >= 0) & (amp != 0)
    N = window.basis_size
    return csr_matrix((amp[keep], (pos[keep] * window.spinor_dim + i2[keep], src[keep])),
                      shape=(N, N))


def assemble_dense(T: ModeMap, window: ModeWindow, basis_limit: int = DEFAULT_BASIS_LIMIT,
                   require_margin: bool = False) -> np.ndarray:
    """Compress T to the window basis as a dense complex matrix (see assemble_sparse)."""
    return assemble_sparse(T, window, basis_limit, require_margin).toarray()


def spectrum(T: ModeMap, window: ModeWindow, basis_limit: int = DEFAULT_BASIS_LIMIT,
             hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues (ascending) of the dense window compression of a hermitian map."""
    mat = assemble_dense(T, window, basis_limit=basis_limit)
    dev = np.max(np.abs(mat - mat.conj().T))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if dev > hermiticity_tol * scale:
        raise WindowError(f"window compression is not hermitian: deviation {dev:.3e}")
    return np.linalg.eigvalsh(mat)
