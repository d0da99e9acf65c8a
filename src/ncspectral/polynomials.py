"""Small polynomial engine on monomial maps {exponent tuple: coefficient}.

Used for numerator polynomials of lattice series and for the symbol expansion
of operator diagonals.  Also hosts the restricted text grammar the command
line uses for polynomials, e.g. "k1^2*k2^2" or "2*k1^4 + k2^2*k3^2".
"""

from __future__ import annotations

import re

__all__ = [
    "poly_mul",
    "poly_degree",
    "poly_is_homogeneous",
    "parse_poly",
    "format_poly",
]

Poly = dict  # {tuple[int, ...]: coefficient}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def poly_degree(p: Poly) -> int:
    """Total degree; zero polynomial reports -1."""
    return max((sum(e) for e in p), default=-1)


def poly_is_homogeneous(p: Poly) -> bool:
    degs = {sum(e) for e in p}
    return len(degs) <= 1


_MONO_FACTOR = re.compile(r"^k(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, n: int) -> Poly:
    """Parse the restricted monomial grammar into a monomial map.

    Terms are separated by + or -, factors by *, each factor is a number or
    k<i> or k<i>^<e> with 1-based variable index i <= n.  No parentheses, no
    arbitrary expressions.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms: list[tuple[float, str]] = []
    sign = 1.0
    buf = ""
    for ch in text:
        if ch in "+-":
            if buf.strip():
                terms.append((sign, buf.strip()))
                buf = ""
            sign = 1.0 if ch == "+" else -1.0
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    if not terms:
        raise ValueError(f"cannot parse polynomial {text!r}")

    poly: Poly = {}
    for sgn, term in terms:
        coeff = sgn
        expo = [0] * n
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            m = _MONO_FACTOR.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= n:
                    raise ValueError(f"variable k{idx} out of range for n={n}")
                expo[idx - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValueError(f"bad factor {factor!r} in polynomial {text!r}") from None
        key = tuple(expo)
        val = poly.get(key, 0.0) + coeff
        if val == 0:
            poly.pop(key, None)
        else:
            poly[key] = val
    return poly


def format_poly(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        factors = [f"k{i + 1}^{x}" if x > 1 else f"k{i + 1}" for i, x in enumerate(e) if x]
        body = "*".join(factors) if factors else "1"
        cc = c if isinstance(c, (int, float)) else complex(c)
        if cc == 1 and factors:
            parts.append(body)
        else:
            parts.append(f"{cc:g}*{body}" if isinstance(cc, (int, float)) else f"({cc})*{body}")
    return " + ".join(parts)
