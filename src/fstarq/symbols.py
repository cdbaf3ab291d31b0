"""Exact polynomial symbols in (q, p) and the exact Moyal product.

A PolySymbol stores a canonical expanded polynomial as a map from
(q-degree, p-degree) to a complex coefficient.  On polynomials the Moyal
bidifferential series terminates, so the star product is computed exactly.
``parse_symbol`` reads the polynomial text form with the expression grammar's
one parser (``expressions._Parser``), whose hooks here build PolySymbols.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ParseError
from .expressions import Token, _Parser


class PolySymbol:
    """Polynomial in q and p with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for (dq, dp), c in terms.items():
                if dq < 0 or dp < 0:
                    raise ValueError("degrees must be >= 0")
                c = complex(c)
                if c != 0:
                    self.terms[(int(dq), int(dp))] = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "PolySymbol":
        return PolySymbol({(0, 0): c})

    @staticmethod
    def q() -> "PolySymbol":
        return PolySymbol({(1, 0): 1.0})

    @staticmethod
    def p() -> "PolySymbol":
        return PolySymbol({(0, 1): 1.0})

    # -- basic algebra -------------------------------------------------------

    def __add__(self, other) -> "PolySymbol":
        other = _as_poly(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolySymbol(out)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "PolySymbol":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "PolySymbol":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "PolySymbol":
        if isinstance(other, (int, float, complex)):
            return PolySymbol({k: c * other for k, c in self.terms.items()})
        other = _as_poly(other)
        out: dict[tuple[int, int], complex] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return PolySymbol(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolySymbol":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = PolySymbol.constant(1.0)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, PolySymbol) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------------

    def dq(self) -> "PolySymbol":
        return PolySymbol({(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0})

    def dp(self) -> "PolySymbol":
        return PolySymbol({(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0})

    def partial(self, i: int, j: int) -> "PolySymbol":
        out = self
        for _ in range(i):
            out = out.dq()
        for _ in range(j):
            out = out.dp()
        return out

    def conjugate(self) -> "PolySymbol":
        return PolySymbol({k: c.conjugate() for k, c in self.terms.items()})

    @property
    def degree(self) -> int:
        return max((a + b for a, b in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def constant_value(self) -> complex:
        return self.terms.get((0, 0), 0.0 + 0.0j)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- evaluation and printing ---------------------------------------------

    def eval_grid(self, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Evaluate on coordinate arrays (broadcasting): float64 if every
        coefficient is real, else complex128, with the bits of the all-complex
        sum.  The first term becomes the sum (+ 0 gives it the signed zeros of
        a sum started at 0); later terms pass through one scratch array."""
        real = all(c.imag == 0 for c in self.terms.values())
        qpow = {0: np.ones_like(Q, dtype=float)}
        ppow = {0: np.ones_like(P, dtype=float)}
        out = scratch = None
        for (a, b), c in self.terms.items():
            if a not in qpow:
                qpow[a] = Q**a
            if b not in ppow:
                ppow[b] = P**b
            cq = (c.real if real else c) * qpow[a]
            if out is None:
                out = cq * ppow[b]
                out += 0
            else:
                scratch = np.multiply(cq, ppow[b], out=scratch)
                out += scratch
        return np.zeros(np.broadcast(Q, P).shape) if out is None else out

    def __call__(self, q, p) -> complex:
        return complex(sum(c * q**a * p**b for (a, b), c in self.terms.items()))

    def to_string(self) -> str:
        """Canonical text form; parse_symbol(to_string()) reproduces the terms."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
        pieces = []
        for a, b in keys:
            c = self.terms[(a, b)]
            factors = []
            if c.imag == 0:
                coeff = repr(c.real)
            elif c.real == 0:
                coeff = f"{c.imag!r}*i"
            else:
                sign = "+" if c.imag >= 0 else "-"
                coeff = f"({c.real!r}{sign}{abs(c.imag)!r}*i)"
            if (a, b) == (0, 0):
                factors.append(coeff)
            else:
                if coeff not in ("1.0",):
                    factors.append(coeff)
                if a:
                    factors.append("q" if a == 1 else f"q^{a}")
                if b:
                    factors.append("p" if b == 1 else f"p^{b}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"PolySymbol({self.to_string()})"


def _as_poly(x) -> PolySymbol:
    if isinstance(x, PolySymbol):
        return x
    if isinstance(x, (int, float, complex)):
        return PolySymbol.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to PolySymbol")


# ---------------------------------------------------------------------------
# Parser: variables q, p, imaginary unit i, + - * / ^ with integer powers.
# Division is defined for constant divisors only (the representation is not
# closed under general quotients).


class _SymbolParser(_Parser):
    ATOM_EXPECTED = {"number", "q", "p", "i", "("}

    def number(self, tok: Token) -> PolySymbol:
        return PolySymbol.constant(float(tok.text))

    def name(self, tok: Token) -> PolySymbol:
        if tok.text == "q":
            return PolySymbol.q()
        if tok.text == "p":
            return PolySymbol.p()
        if tok.text == "i":
            return PolySymbol.constant(1j)
        raise ParseError(f"unknown name {tok.text!r}", tok.pos, expected={"q", "p", "i"})

    def negate(self, node: PolySymbol) -> PolySymbol:
        return -node

    def binary(self, tok: Token, left: PolySymbol, right: PolySymbol) -> PolySymbol:
        if tok.kind == "+":
            return left + right
        if tok.kind == "-":
            return left - right
        if tok.kind == "*":
            return left * right
        if not right.is_constant():
            raise ParseError("divisor must be a constant", tok.pos)
        c = right.constant_value()
        if c == 0:
            raise ParseError("division by zero", tok.pos)
        return left * (1.0 / c)

    def exponent(self, base: PolySymbol) -> PolySymbol:
        tok = self.take()
        if tok.kind != "number" or not tok.text.isdigit():
            raise ParseError("exponent must be a nonnegative integer literal",
                             tok.pos, expected={"integer"})
        return base ** int(tok.text)


def parse_symbol(text: str) -> PolySymbol:
    """Parse a polynomial expression in q, p, i into canonical expanded form."""
    return _SymbolParser(text).parse()


# ---------------------------------------------------------------------------
# Ladder symbols and the exact Moyal product

_SQRT2 = math.sqrt(2.0)


def annihilation_symbol() -> PolySymbol:
    """a = (q + i p) / sqrt(2)."""
    return PolySymbol({(1, 0): 1.0 / _SQRT2, (0, 1): 1j / _SQRT2})


def creation_symbol() -> PolySymbol:
    """abar = (q - i p) / sqrt(2)."""
    return PolySymbol({(1, 0): 1.0 / _SQRT2, (0, 1): -1j / _SQRT2})


def moyal_exact(k: PolySymbol, g: PolySymbol, hbar: float) -> PolySymbol:
    """Full Moyal star product of two polynomials; the series terminates.

    k * g = sum_m (i hbar / 2)^m / m! *
            sum_j (-1)^j C(m, j) (d_q^(m-j) d_p^j k) (d_p^(m-j) d_q^j g)
    """
    out = PolySymbol()
    top = min(k.degree, g.degree)
    for m in range(top + 1):
        pref = (0.5j * hbar) ** m / math.factorial(m)
        acc = PolySymbol()
        for j in range(m + 1):
            sign = -1.0 if j % 2 else 1.0
            left = k.partial(m - j, j)
            right = g.partial(j, m - j)
            if not left.terms or not right.terms:
                continue
            acc = acc + sign * math.comb(m, j) * (left * right)
        out = out + pref * acc
    return out


def poisson_bracket(k: PolySymbol, g: PolySymbol) -> PolySymbol:
    """{k, g} = dk/dq dg/dp - dk/dp dg/dq."""
    return k.dq() * g.dp() - k.dp() * g.dq()


def random_polynomial(rng: np.random.Generator, max_degree: int = 4) -> PolySymbol:
    """Dense random polynomial with O(1) complex coefficients, for property tests."""
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            terms[(a, b)] = rng.standard_normal() + 1j * rng.standard_normal()
    return PolySymbol(terms)
