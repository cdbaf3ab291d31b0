"""Exact polynomial symbols in (q, p) and the exact Moyal product.

A PolySymbol stores a canonical expanded polynomial as a map from
(q-degree, p-degree) to a complex coefficient.  On polynomials the Moyal
bidifferential series terminates, so the star product is computed exactly.
``parse_symbol`` reads the polynomial text form with the expression grammar's
one parser (``expressions._Parser``), whose hooks here build PolySymbols.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Mapping

import numpy as np

from .deformation import require_positive
from .errors import ParseError
from .expressions import Token, _Parser


class PolySymbol:
    """Polynomial in q and p with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        self.terms: dict[tuple[int, int], complex] = {}
        for (dq, dp), c in (terms or {}).items():
            key = (_count(dq, "degrees must be >= 0"), _count(dp, "degrees must be >= 0"))
            c = complex(c)
            if c != 0:
                self.terms[key] = c

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

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], complex]) -> "PolySymbol":
        """Trusted constructor for terms made from clean ones: it only drops zeros."""
        out = cls.__new__(cls)
        out.terms = {k: c for k, c in terms.items() if c != 0}
        return out

    # -- basic algebra -------------------------------------------------------

    def __add__(self, other) -> "PolySymbol":
        other = _as_poly(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolySymbol._of(out)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "PolySymbol":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "PolySymbol":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "PolySymbol":
        if isinstance(other, numbers.Number):
            other = other if type(other) in (int, float, complex) else complex(other)
            return PolySymbol._of({k: c * other for k, c in self.terms.items()})
        other = _as_poly(other)
        out: dict[tuple[int, int], complex] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return PolySymbol._of(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolySymbol":
        out = PolySymbol.constant(1.0)
        for _ in range(_count(k, "polynomial powers must be nonnegative integers")):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, PolySymbol) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------------

    def dq(self) -> "PolySymbol":
        return PolySymbol._of({(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0})

    def dp(self) -> "PolySymbol":
        return PolySymbol._of({(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0})

    def partial(self, i: int, j: int) -> "PolySymbol":
        orders = f"partial ({i}, {j}): orders must be >= 0"
        out = self
        for _ in range(_count(i, orders)):
            out = out.dq()
        for _ in range(_count(j, orders)):
            out = out.dp()
        return out

    def conjugate(self) -> "PolySymbol":
        return PolySymbol._of({k: c.conjugate() for k, c in self.terms.items()})

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
    if isinstance(x, numbers.Number):
        return PolySymbol.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to PolySymbol")


def _count(value, message: str) -> int:
    """value through operator.index (TypeError if no integer); ValueError(message) if < 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(message)
    return value


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
    hbar = require_positive("hbar", hbar)
    top = min(k.degree, g.degree)
    dk, dg = [k], [g]
    out: dict[tuple[int, int], complex] = {}
    for m in range(top + 1):
        if m:  # the next anti-diagonal; each partial once, by partial's dq-then-dp steps
            dk = [dk[0].dq()] + [d.dp() for d in dk]  # dk[j] = k.partial(m - j, j)
            dg = [d.dp() for d in dg] + [dg[-1].dq()]  # dg[j] = g.partial(j, m - j)
        pref = (0.5j * hbar) ** m / math.factorial(m)
        acc: dict[tuple[int, int], complex] = {}
        for j, (left, right) in enumerate(zip(dk, dg)):
            if left.terms and right.terms:
                sign = -1.0 if j % 2 else 1.0
                _add_scaled(acc, (left * right).terms, sign * math.comb(m, j))
        _add_scaled(out, acc, pref)
    return PolySymbol._of(out)


def _add_scaled(acc: dict[tuple[int, int], complex], terms: dict, scale) -> None:
    """acc += scale * terms in place, with the zero drops, order and bits of PolySymbol's."""
    for key, c in terms.items():
        c = c * scale
        if c != 0:
            c = acc.get(key, 0.0) + c
            if c != 0:
                acc[key] = c
            else:
                del acc[key]


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
