"""Small arithmetic expression grammar used by the deformation mini-language.

Grammar (whitespace insensitive)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := ('+'|'-') factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | 'n' | ('sqrt'|'exp'|'ln') '(' expr ')' | '(' expr ')'

Parsed expressions evaluate through numpy alone: a scalar n gives a numpy
float, bit-identical to the same n inside an array.  Domain errors,
division by zero and overflow give inf or NaN, never an exception or a
warning; ln of x <= 0 is NaN.  Callers such as ``deformation.eval_f``
refuse such values by name.  Expressions also support exact symbolic
differentiation (used for the analytic derivative chains in the
star-product machinery).

``_Parser`` is the package's one recursive-descent parser; ``symbols``
overrides its five build hooks to read polynomials in q, p and i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<number>{NUMBER_RE.pattern})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

FUNCTIONS = ("sqrt", "exp", "ln")


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | one of + - * / ^ ( ) | 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unrecognized character {text[bad_at]!r}", bad_at)
        if m.group("number") is not None:
            tokens.append(Token("number", m.group("number"), m.start("number")))
        elif m.group("name") is not None:
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes


class Node:
    def __call__(self, n):
        raise NotImplementedError

    def diff(self) -> "Node":
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __call__(self, n):
        return self.value * np.ones_like(np.asarray(n, dtype=float))

    def diff(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Node):
    def __call__(self, n):
        return np.asarray(n, dtype=float)

    def diff(self):
        return Num(1.0)


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def __call__(self, n):
        a = self.left(n)
        b = self.right(n)
        with np.errstate(all="ignore"):
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                return a / b
            return np.power(a, b)

    def diff(self):
        u, v = self.left, self.right
        du, dv = u.diff(), v.diff()
        if self.op == "+":
            return BinOp("+", du, dv)
        if self.op == "-":
            return BinOp("-", du, dv)
        if self.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if self.op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("*", v, v))
        # u^v: constant exponent gets the power rule, otherwise rewrite as
        # exp(v ln u) and differentiate that
        if isinstance(v, Num):
            c = v.value
            return BinOp("*", BinOp("*", Num(c), BinOp("^", u, Num(c - 1.0))), du)
        return BinOp("*", self, BinOp("+", BinOp("*", dv, Call("ln", u)),
                                      BinOp("*", v, BinOp("/", du, u))))


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node

    def __call__(self, n):
        x = self.arg(n)
        with np.errstate(all="ignore"):
            if self.fn == "sqrt":
                return np.sqrt(x)
            if self.fn == "exp":
                return np.exp(x)
            return np.log(np.where(x > 0, x, np.nan))

    def diff(self):
        dx = self.arg.diff()
        if self.fn == "sqrt":
            return BinOp("/", dx, BinOp("*", Num(2.0), self))
        if self.fn == "exp":
            return BinOp("*", self, dx)
        return BinOp("/", dx, self.arg)  # ln


# ---------------------------------------------------------------------------
# Recursive-descent parser


class _Parser:
    """Recursive descent that builds its result only through the hooks
    ``number``, ``name``, ``negate``, ``binary`` and ``exponent``."""

    ATOM_EXPECTED = {"number", "name", "("}

    def __init__(self, text: str):
        if not text.strip():
            raise ParseError("empty expression", 0, expected=self.ATOM_EXPECTED)
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}",
                             tok.pos, expected={kind})
        return self.take()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos, expected={"end"})
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.take()
            node = self.binary(tok, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.take()
            node = self.binary(tok, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "+":
            self.take()
            return self.factor()
        if tok.kind == "-":
            self.take()
            return self.negate(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            return self.exponent(base)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return self.number(tok)
        if tok.kind == "name":
            self.take()
            return self.name(tok)
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.kind}", tok.pos,
                         expected=self.ATOM_EXPECTED)

    def number(self, tok: Token) -> Node:
        return Num(float(tok.text))

    def name(self, tok: Token) -> Node:
        if tok.text == "n":
            return Var()
        if tok.text in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(tok.text, arg)
        raise ParseError(f"unknown name {tok.text!r}", tok.pos, expected={"n", *FUNCTIONS})

    def negate(self, node: Node) -> Node:
        return BinOp("-", Num(0.0), node)

    def binary(self, tok: Token, left: Node, right: Node) -> Node:
        return BinOp(tok.kind, left, right)

    def exponent(self, base: Node) -> Node:
        return BinOp("^", base, self.factor())


def parse_scalar_expr(text: str) -> Node:
    """Parse an expression in the variable n into an evaluable AST."""
    return _Parser(text).parse()
