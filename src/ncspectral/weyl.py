"""Exact arithmetic in the deformed torus algebra.

Elements are finitely supported Fourier sums a = sum_k a_k U_k over integer
lattice points k, with the product rule U_k U_q = exp(-i/2 k.Theta q) U_{k+q}
for a skew-symmetric real deformation matrix Theta.  Coefficients are complex
floats; the bilinear form k.Theta q is contracted from exact integer minors
(k_i q_j - k_j q_i) so each product phase costs exactly one trig call.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import cmath
import numpy as np

__all__ = [
    "DeformationMatrix",
    "FourierElement",
    "weyl_phase",
    "multiply",
    "adjoint",
    "trace",
    "derivation",
    "commutator",
    "field_strength",
]


def _aspoint(k, dim: int) -> tuple[int, ...]:
    """Normalize a lattice point to a tuple of Python ints of length dim."""
    pt = tuple(int(c) for c in k)
    if len(pt) != dim:
        raise ValueError(f"lattice point {pt} has length {len(pt)}, expected {dim}")
    return pt


class DeformationMatrix:
    """Skew-symmetric real n x n matrix of commutation phases."""

    def __init__(self, theta) -> None:
        mat = np.array(theta, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("deformation matrix must be square")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        # exact entrywise skew-symmetry, no tolerance
        if not np.array_equal(mat.T, -mat):
            raise ValueError("deformation matrix must be exactly skew-symmetric")
        self.n = int(mat.shape[0])
        self.theta = mat
        self.theta.setflags(write=False)

    @classmethod
    def zero(cls, n: int) -> "DeformationMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def standard_block(cls, n: int, angle: float) -> "DeformationMatrix":
        """Block-diagonal matrix with 2x2 blocks [[0, angle], [-angle, 0]].

        Odd n leaves a trailing zero row/column.
        """
        mat = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            mat[i, i + 1] = angle
            mat[i + 1, i] = -angle
        return cls(mat)

    def bilinear(self, k: Sequence[int], q: Sequence[int]) -> float:
        """k . (Theta q), contracted over exact integer antisymmetric minors."""
        k = _aspoint(k, self.n)
        q = _aspoint(q, self.n)
        total = 0.0
        th = self.theta
        for i in range(self.n):
            ki = k[i]
            qi = q[i]
            for j in range(i + 1, self.n):
                minor = ki * q[j] - k[j] * qi  # exact int
                if minor:
                    total += th[i, j] * minor
        return total

    def __repr__(self) -> str:
        return f"DeformationMatrix(n={self.n})"


def weyl_phase(k, q, theta: DeformationMatrix) -> float:
    """Phase exponent phi with U_k U_q = exp(i phi) U_{k+q}, i.e. -1/2 k.Theta q."""
    return -0.5 * theta.bilinear(_aspoint(k, theta.n), _aspoint(q, theta.n))


class FourierElement:
    """Finitely supported Fourier sum over Z^dim; zero coefficients are dropped.

    Instances are immutable in practice: all arithmetic returns new elements.
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Mapping | Iterable = (), prune: float = 0.0) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[tuple[int, ...], complex] = {}
        for k, v in items:
            v = complex(v)
            if v == 0:
                continue
            pt = _aspoint(k, dim)
            w = acc.get(pt, 0j) + v
            if w == 0:
                acc.pop(pt, None)
            else:
                acc[pt] = w
        if prune > 0.0:
            acc = {k: v for k, v in acc.items() if abs(v) > prune}
        self._coeffs = acc

    @classmethod
    def unit(cls, dim: int, k) -> "FourierElement":
        """The basis element U_k."""
        return cls(dim, {_aspoint(k, dim): 1.0})

    @classmethod
    def zero(cls, dim: int) -> "FourierElement":
        return cls(dim, {})

    @property
    def support(self) -> list[tuple[int, ...]]:
        return sorted(self._coeffs)

    @property
    def spread(self) -> int:
        """Max-norm radius of the support (0 for the zero element)."""
        if not self._coeffs:
            return 0
        return max(max(abs(c) for c in k) for k in self._coeffs)

    def coeff(self, k) -> complex:
        return self._coeffs.get(_aspoint(k, self.dim), 0j)

    def items(self):
        return ((k, self._coeffs[k]) for k in sorted(self._coeffs))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self._coeffs
        return all(abs(v) <= tol for v in self._coeffs.values())

    def norm_inf(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __add__(self, other: "FourierElement") -> "FourierElement":
        self._check_dim(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            w = out.get(k, 0j) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return FourierElement(self.dim, out)

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return self + (-other)

    def __neg__(self) -> "FourierElement":
        return FourierElement(self.dim, {k: -v for k, v in self._coeffs.items()})

    def __mul__(self, scalar) -> "FourierElement":
        if isinstance(scalar, FourierElement):
            raise TypeError("use multiply(a, b, theta) for the deformed product")
        return FourierElement(self.dim, {k: v * complex(scalar) for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def distance(self, other: "FourierElement") -> float:
        """Max coefficientwise deviation, over the union of both supports."""
        self._check_dim(other)
        keys = set(self._coeffs) | set(other._coeffs)
        return max((abs(self._coeffs.get(k, 0j) - other._coeffs.get(k, 0j)) for k in keys), default=0.0)

    def to_json_dict(self) -> dict:
        """Serialization per the wire format: terms sorted lexicographically by k."""
        return {
            "dim": self.dim,
            "terms": [
                {"k": list(k), "re": self._coeffs[k].real, "im": self._coeffs[k].imag}
                for k in sorted(self._coeffs)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierElement":
        dim = int(data["dim"])
        return cls(dim, {tuple(t["k"]): complex(t["re"], t["im"]) for t in data["terms"]})

    def _check_dim(self, other: "FourierElement") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {v:.3g}" for k, v in list(self.items())[:4])
        more = "..." if len(self) > 4 else ""
        return f"FourierElement(dim={self.dim}, {{{terms}{more}}})"


def multiply(a: FourierElement, b: FourierElement, theta: DeformationMatrix,
             prune: float = 0.0) -> FourierElement:
    """Deformed convolution (ab)_m = sum_{k+q=m} a_k b_q exp(-i/2 k.Theta q)."""
    a._check_dim(b)
    if a.dim != theta.n:
        raise ValueError(f"dimension mismatch: element dim {a.dim}, matrix n {theta.n}")
    out: dict[tuple[int, ...], complex] = {}
    for k, av in a._coeffs.items():
        for q, bv in b._coeffs.items():
            phi = weyl_phase(k, q, theta)
            m = tuple(ki + qi for ki, qi in zip(k, q))
            w = out.get(m, 0j) + av * bv * cmath.exp(1j * phi)
            if w == 0:
                out.pop(m, None)
            else:
                out[m] = w
    return FourierElement(a.dim, out, prune=prune)


def adjoint(a: FourierElement) -> FourierElement:
    """(a*)_k = conj(a_{-k}); the involution with U_k* = U_{-k}."""
    return FourierElement(a.dim, {tuple(-c for c in k): v.conjugate() for k, v in a._coeffs.items()})


def trace(a: FourierElement) -> complex:
    """The canonical trace: the coefficient of U_0."""
    return a._coeffs.get((0,) * a.dim, 0j)


def derivation(a: FourierElement, mu: int) -> FourierElement:
    """Canonical derivation along axis mu (1-based): (delta_mu a)_k = i k_mu a_k."""
    if not 1 <= mu <= a.dim:
        raise ValueError(f"axis {mu} out of range 1..{a.dim}")
    idx = mu - 1
    return FourierElement(a.dim, {k: 1j * k[idx] * v for k, v in a._coeffs.items() if k[idx] != 0})


def commutator(a: FourierElement, b: FourierElement, theta: DeformationMatrix) -> FourierElement:
    """ab - ba; equals -2i sin(1/2 k.Theta l) U_{k+l} on basis elements."""
    return multiply(a, b, theta) - multiply(b, a, theta)


def field_strength(components, theta: DeformationMatrix) -> list[list[FourierElement]]:
    """Curvature F[a][b] = delta_a(A_b) - delta_b(A_a) + [A_a, A_b] (0-based grid).

    `components` is a sequence of n FourierElements, or any object exposing a
    `.components` attribute with one.
    """
    comps = getattr(components, "components", components)
    comps = list(comps)
    n = theta.n
    if len(comps) != n:
        raise ValueError(f"expected {n} one-form components, got {len(comps)}")
    zero = FourierElement.zero(n)
    F = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = (derivation(comps[b], a + 1) - derivation(comps[a], b + 1)
                   + commutator(comps[a], comps[b], theta))
            F[a][b] = val
            F[b][a] = -val
    return F
