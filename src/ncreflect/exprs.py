"""Parsing and printing of noncommutative polynomial expressions.

Grammar (whitespace insignificant)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := scalar | generator | '(' expr ')'
    scalar := int ['/' nat] | 'i' | 'z' nat ['^' ['-'] nat]

``z8^3`` is the primitive 8th root of unity cubed; ``i`` is ``z4``.  The
leading minus is the only unary minus.  Multiplication is always written
``*`` and is noncommutative in the generators.

Polynomials in the free algebra are ``dict[word, Cyc]`` where a word is a
tuple of generator indices; zero coefficients are never stored.  ``show``
prints a canonical form (graded-lexicographic term order, ``^`` runs) and
``parse(show(p)) == p`` for every polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .linalg import vec_addto
from .scalars import MAX_CONDUCTOR, Cyc, I, ONE, ZERO, coerce, zeta

Word = tuple  # tuple[int, ...]
FreePoly = dict  # dict[Word, Cyc]

# names the grammar claims for itself (i and the roots z<n>)
RESERVED_NAME = re.compile(r"^(i|z[0-9]+)$")

# int() refuses strings of over 4300 digits; longer literals are refused
# at their offset before it sees them
MAX_INT_DIGITS = 1000

# the parser recurses through four calls per parenthesis, so deeper
# nesting is refused at its '(' before Python's recursion limit is hit
MAX_PAREN_DEPTH = 100

# a product or power is refused at its operator before it is formed when
# a word of it would be longer than MAX_WORD_LENGTH letters (a power also
# when its exponent is), or when its factors have more than MAX_TERMS
# pairs of terms: x^100000 or (x+y)^1000 would otherwise be expanded in
# full before any degree bound is looked at
MAX_WORD_LENGTH = 1000
MAX_TERMS = 10_000

# the pairs of terms of every product in one expression count against one
# budget, so a chain of permitted products, (x+y)^13*1*1*..., is refused at
# the operator that passes it instead of being formed factor by factor
MAX_EXPANSION = 100_000


class ExprError(ValueError):
    """Syntax or name error in an expression, with a character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# ---------------------------------------------------------------------------
# free-polynomial arithmetic


def p_const(c) -> FreePoly:
    c = coerce(c)
    return {} if c.is_zero() else {(): c}


def p_gen(i: int) -> FreePoly:
    return {(i,): ONE}


def p_scale(a: FreePoly, c) -> FreePoly:
    c = coerce(c)
    if c.is_zero():
        return {}
    return {w: x * c for w, x in a.items()}


def p_mul(a: FreePoly, b: FreePoly) -> FreePoly:
    out: FreePoly = {}
    for wa, xa in a.items():
        vec_addto(out, {wa + wb: xb for wb, xb in b.items()}, xa)
    return out


def p_degree(a: FreePoly, weights: Sequence[int] | None = None) -> int | None:
    """Common weighted degree of all terms, or None for 0 / mixed degrees."""
    if not a:
        return None
    degs = set()
    for w in a:
        degs.add(len(w) if weights is None else sum(weights[i] for i in w))
    return degs.pop() if len(degs) == 1 else None


def _longest(a: FreePoly) -> int:
    return max(map(len, a), default=0)


# ---------------------------------------------------------------------------
# tokenizer


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*^/()]))")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprError(f"unexpected character {text[off]!r}", off)
        start = m.start(m.lastindex)
        if m.group(1) is not None:
            if len(m.group(1).lstrip("0")) > MAX_INT_DIGITS:
                raise ExprError(f"integer literal of more than {MAX_INT_DIGITS} digits", start)
            out.append(("int", int(m.group(1)), start))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), start))
        else:
            out.append((m.group(3), m.group(3), start))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str, gens: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.pairs = 0
        self.gens = {name: idx for idx, name in enumerate(gens)}

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ExprError(message, self.peek()[2])

    def expr(self) -> FreePoly:
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        acc = self.term()
        if negate:
            acc = p_scale(acc, -1)
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.next()
            t = self.term()
            try:
                vec_addto(acc, t, ONE if op == "+" else Cyc.rational(-1))
            except ValueError as e:  # roots of unity whose lcm is above MAX_CONDUCTOR
                raise ExprError(str(e), off) from None
        return acc

    def term(self) -> FreePoly:
        acc = self.factor()
        while self.peek()[0] == "*":
            off = self.next()[2]
            acc = self.product(acc, self.factor(), off)
        return acc

    def factor(self) -> FreePoly:
        base = self.atom()
        if self.peek()[0] == "^":
            op = self.next()[2]
            kind, value, off = self.next()
            if kind != "int":
                raise ExprError("expected a nonnegative integer exponent", off)
            if max(value, value * _longest(base)) > MAX_WORD_LENGTH:
                raise ExprError(f"power {value} exceeds the maximum word length "
                                f"{MAX_WORD_LENGTH}", op)
            acc = p_const(1)
            for _ in range(value):
                acc = self.product(acc, base, op)
            base = acc
        return base

    def product(self, a: FreePoly, b: FreePoly, off: int) -> FreePoly:
        """a * b, refused at the operator's offset before it is formed
        when it would exceed MAX_WORD_LENGTH, MAX_TERMS or what is left of
        MAX_EXPANSION."""
        if _longest(a) + _longest(b) > MAX_WORD_LENGTH:
            raise ExprError(f"product exceeds the maximum word length {MAX_WORD_LENGTH}", off)
        pairs = len(a) * len(b)
        if pairs > MAX_TERMS:
            raise ExprError(f"product of {len(a)} by {len(b)} terms, "
                            f"above the maximum of {MAX_TERMS} pairs", off)
        self.pairs += pairs
        if self.pairs > MAX_EXPANSION:
            raise ExprError(f"products of {self.pairs} pairs of terms in one expression, "
                            f"above the maximum of {MAX_EXPANSION}", off)
        try:
            return p_mul(a, b)
        except ValueError as e:  # roots of unity whose lcm is above MAX_CONDUCTOR
            raise ExprError(str(e), off) from None

    def atom(self) -> FreePoly:
        kind, value, off = self.peek()
        if kind == "int":
            self.next()
            num = value
            if self.peek()[0] == "/":
                self.next()
                dkind, dval, doff = self.next()
                if dkind != "int" or dval == 0:
                    raise ExprError("expected a positive denominator", doff)
                return p_const(Fraction(num, dval))
            return p_const(num)
        if kind == "name":
            self.next()
            return self.named_atom(str(value), off)
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ExprError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", off)
            self.next()
            self.depth += 1
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.next()
            self.depth -= 1
            return inner
        self.fail(f"unexpected {self.describe(kind, value)}")

    def named_atom(self, name: str, off: int) -> FreePoly:
        if name == "i":
            return p_const(I)
        m = re.fullmatch(r"z([0-9]+)", name)
        if m:
            digits = m.group(1).lstrip("0")
            if not digits:
                raise ExprError("root-of-unity order must be positive", off)
            # int() refuses strings of over 4300 digits; zeta refuses the
            # shorter orders above MAX_CONDUCTOR
            if len(digits) > len(str(MAX_CONDUCTOR)):
                raise ExprError(
                    f"root-of-unity order exceeds the maximum conductor {MAX_CONDUCTOR}", off)
            n = int(digits)
            k = 1
            # negative exponents are only meaningful on scalars, so they
            # are consumed here rather than in factor()
            if self.peek()[0] == "^" and self.tokens[self.pos + 1][0] == "-":
                self.next()
                self.next()
                ekind, evalue, eoff = self.next()
                if ekind != "int":
                    raise ExprError("expected an integer exponent", eoff)
                k = -evalue
            try:
                return p_const(zeta(n, k))
            except ValueError as e:
                raise ExprError(str(e), off) from None
        idx = self.gens.get(name)
        if idx is None:
            raise ExprError(f"unknown generator {name!r}", off)
        return p_gen(idx)

    @staticmethod
    def describe(kind: str, value) -> str:
        if kind == "end":
            return "end of input"
        return f"{value!r}"


def parse(text: str, gens: Sequence[str]) -> FreePoly:
    """Parse an expression over the given generator names."""
    p = _Parser(text, gens)
    if p.peek()[0] == "end":
        p.fail("empty expression")
    out = p.expr()
    if p.peek()[0] != "end":
        kind, value, _ = p.peek()
        p.fail(f"unexpected {p.describe(kind, value)}")
    return out


def parse_scalar(text: str) -> Cyc:
    poly = parse(text, [])
    if not poly:
        return ZERO
    return poly[()]


# ---------------------------------------------------------------------------
# printing


def show_scalar(c: Cyc) -> tuple[str, bool]:
    """Render a scalar; the flag says whether it is an additive compound."""
    if c.is_rational():
        return str(c.as_fraction()), False
    pieces = []
    for j, r in enumerate(c.c):
        if not r:
            continue
        if j == 0:
            pieces.append(str(r))
            continue
        zpart = f"z{c.n}" if j == 1 else f"z{c.n}^{j}"
        if r == 1:
            pieces.append(zpart)
        elif r == -1:
            pieces.append(f"-{zpart}")
        else:
            pieces.append(f"{r}*{zpart}")
    text = pieces[0]
    for piece in pieces[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text, len(pieces) > 1


def show_labelled(vec: dict, labels: Sequence[str]) -> dict[str, str]:
    """A sparse vector as {label of its index: its scalar}, in index order."""
    return {labels[k]: show_scalar(vec[k])[0] for k in sorted(vec)}


def _show_word(word: Word, gens: Sequence[str]) -> str:
    parts = []
    run_letter, run = None, 0
    for letter in list(word) + [None]:
        if letter == run_letter:
            run += 1
            continue
        if run_letter is not None:
            parts.append(gens[run_letter] if run == 1 else f"{gens[run_letter]}^{run}")
        run_letter, run = letter, 1
    return "*".join(parts)


def show(poly: FreePoly, gens: Sequence[str]) -> str:
    """Canonical rendering: terms in graded-lexicographic order."""
    if not poly:
        return "0"
    terms = []
    for word in sorted(poly, key=lambda w: (len(w), w)):
        s, compound = show_scalar(poly[word])
        if not word:
            terms.append(f"({s})" if compound else s)
            continue
        wtext = _show_word(word, gens)
        if compound:
            terms.append(f"({s})*{wtext}")
        elif s == "1":
            terms.append(wtext)
        elif s == "-1":
            terms.append(f"-{wtext}")
        else:
            terms.append(f"{s}*{wtext}")
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text
