"""Exact arithmetic in cyclotomic fields.

Every scalar used by the engine is an element of Q(zeta_N), stored as the
unique residue modulo the N-th cyclotomic polynomial Phi_N with Fraction
coefficients (length phi(N)).  Reducing modulo Phi_N rather than z^N - 1
makes the representation a field, so equality is coefficient equality and
zero-testing is exact — which is what every rank computation downstream
leans on.

Mixed-conductor arithmetic promotes both operands to the least common
conductor via the standard embedding zeta_N -> zeta_M^(M/N).  Values are
immutable; the per-conductor tables are filled idempotently, so concurrent
readers are safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

F0 = Fraction(0)
F1 = Fraction(1)


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-reduction tables


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (little-endian, den monic-ish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        coeff = num[k + len(den) - 1]
        assert coeff % lead == 0
        c = coeff // lead
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    assert not any(num[: len(den) - 1]), "non-exact polynomial division"
    return q


_PHI: dict[int, tuple[int, ...]] = {}


def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, little-endian, monic, degree phi(n)."""
    got = _PHI.get(n)
    if got is not None:
        return got
    if n == 1:
        poly = (-1, 1)
    else:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1
        for d in divisors(n)[:-1]:
            num = _poly_div_exact(num, list(cyclotomic(d)))
        poly = tuple(num)
    _PHI[n] = poly
    return poly


_POW: dict[int, tuple[tuple[Fraction, ...], ...]] = {}


def _powtab(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row e is zeta_n^e reduced modulo Phi_n, for 0 <= e < n."""
    got = _POW.get(n)
    if got is not None:
        return got
    phi = euler_phi(n)
    top = [-Fraction(c) for c in cyclotomic(n)[:phi]]  # z^phi = top(z)
    rows: list[tuple[Fraction, ...]] = []
    cur = [F0] * phi
    cur[0] = F1
    for _ in range(n):
        rows.append(tuple(cur))
        spill = cur[phi - 1]
        cur = [F0] + cur[: phi - 1]
        if spill:
            cur = [a + spill * t for a, t in zip(cur, top)]
    tab = tuple(rows)
    _POW[n] = tab
    return tab


_EMB: dict[tuple[int, int], tuple[tuple[Fraction, ...], ...]] = {}
_SUBFIELD: dict[tuple[int, int], object] = {}  # (d, n) -> linalg.Expressor of _embtab(d, n)


def _embtab(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row j is zeta_n^j expressed in the conductor-m basis (n divides m)."""
    got = _EMB.get((n, m))
    if got is not None:
        return got
    step = m // n
    pw = _powtab(m)
    tab = tuple(pw[(j * step) % m] for j in range(euler_phi(n)))
    _EMB[(n, m)] = tab
    return tab


def _poly_inverse(a: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    """Inverse of a modulo Phi (extended Euclid over Q[z])."""

    def strip(p: list[Fraction]) -> list[Fraction]:
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = [Fraction(c) for c in phi], strip(list(a))
    s0: list[Fraction] = []
    s1: list[Fraction] = [F1]
    while r1:
        q = [F0] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
        r = list(r0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + len(r1) - 1] / r1[-1]
            q[k] = c
            if c:
                for j, dj in enumerate(r1):
                    r[k + j] -= c * dj
        strip(r)
        qs1 = [F0] * (len(q) + len(s1) - 1) if (q and s1) else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] += qi * sj
        news = [F0] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            news[i] += c
        for i, c in enumerate(qs1):
            news[i] -= c
        r0, r1, s0, s1 = r1, r, s1, strip(news)
    if len(r0) != 1:
        raise ZeroDivisionError("scalar division by zero")
    inv_lead = F1 / r0[0]
    return [c * inv_lead for c in s0]


# ---------------------------------------------------------------------------


class Cyc:
    """An element of Q(zeta_n): Fraction coefficients modulo Phi_n.

    Internal invariant: if the value is rational the conductor is 1, so
    the common rational case never pays cyclotomic overhead.
    """

    __slots__ = ("n", "c", "_key")

    def __init__(self, n: int, c: tuple[Fraction, ...]):
        if n != 1 and not any(c[1:]):
            n, c = 1, (c[0],)
        self.n = n
        self.c = c
        self._key = None

    # -- construction -------------------------------------------------

    @staticmethod
    def rational(p, q: int = 1) -> "Cyc":
        return Cyc(1, (Fraction(p, q),))

    # -- coercion and promotion ---------------------------------------

    def _lift(self, m: int) -> tuple[Fraction, ...]:
        if m == self.n:
            return self.c
        emb = _embtab(self.n, m)
        out = [F0] * euler_phi(m)
        for j, cj in enumerate(self.c):
            if cj:
                row = emb[j]
                for t in range(len(out)):
                    if row[t]:
                        out[t] += cj * row[t]
        return tuple(out)

    def _join(self, other: "Cyc") -> tuple[int, tuple[Fraction, ...], tuple[Fraction, ...]]:
        if self.n == other.n:
            return self.n, self.c, other.c
        m = _lcm(self.n, other.n)
        return m, self._lift(m), other._lift(m)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == 1 and not self.c[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational scalar")
        return self.c[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Cyc":
        other = coerce(other)
        if self.n == 1 and other.n == 1:
            return Cyc(1, (self.c[0] + other.c[0],))
        n, a, b = self._join(other)
        return Cyc(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other) -> "Cyc":
        other = coerce(other)
        if self.n == 1 and other.n == 1:
            return Cyc(1, (self.c[0] - other.c[0],))
        n, a, b = self._join(other)
        return Cyc(n, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other) -> "Cyc":
        return coerce(other).__sub__(self)

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-x for x in self.c))

    def __mul__(self, other) -> "Cyc":
        other = coerce(other)
        if self.n == 1:
            q = self.c[0]
            if not q:
                return ZERO
            return Cyc(other.n, tuple(q * x for x in other.c))
        if other.n == 1:
            q = other.c[0]
            if not q:
                return ZERO
            return Cyc(self.n, tuple(q * x for x in self.c))
        n, a, b = self._join(other)
        phi = len(a)
        conv = [F0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:phi]
        pw = _powtab(n)
        for e in range(phi, 2 * phi - 1):
            ce = conv[e]
            if ce:
                row = pw[e % n]
                for t in range(phi):
                    if row[t]:
                        out[t] += ce * row[t]
        return Cyc(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.n == 1:
            if not self.c[0]:
                raise ZeroDivisionError("scalar division by zero")
            return Cyc(1, (1 / self.c[0],))
        inv = _poly_inverse(list(self.c), cyclotomic(self.n))
        phi = euler_phi(self.n)
        inv += [F0] * (phi - len(inv))
        return Cyc(self.n, tuple(inv[:phi]))

    def __truediv__(self, other) -> "Cyc":
        return self * coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyc":
        return coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inverse() ** (-k)
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        other = coerce(other)
        if self.n == other.n:
            return self.c == other.c
        n, a, b = self._join(other)
        return a == b

    def key(self) -> tuple:
        """Canonical hashable form: coefficients at the minimal conductor."""
        if self._key is not None:
            return self._key
        n, c = self.n, self.c
        if n != 1:
            for d in divisors(n)[:-1]:
                sol = _express_in_subfield(c, d, n)
                if sol is not None:
                    n, c = d, sol
                    break
        self._key = (n, c)
        return self._key

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.n == 1:
            return f"Cyc({self.c[0]})"
        return f"Cyc(z{self.n}:{list(self.c)})"


def _express_in_subfield(c: tuple[Fraction, ...], d: int, n: int) -> tuple[Fraction, ...] | None:
    """Solve for coefficients over the conductor-d basis inside Q(zeta_n)."""
    from .linalg import Expressor, vec_from_dense

    ex = _SUBFIELD.get((d, n))
    if ex is None:
        ex = Expressor(len(c), [vec_from_dense(row) for row in _embtab(d, n)])
        _SUBFIELD[(d, n)] = ex
    sol = ex.coeffs(vec_from_dense(c))
    return None if sol is None else tuple(x.c[0] for x in sol)


def coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(1, (Fraction(x),))
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")


def zeta(n: int, k: int = 1) -> Cyc:
    """The root of unity zeta_n^k, reduced to its minimal conductor."""
    if n < 1:
        raise ValueError("conductor must be positive")
    k %= n
    if k == 0:
        return ONE
    g = gcd(k, n)
    n, k = n // g, k // g
    if n == 1:
        return ONE
    if n == 2:
        return MINUS_ONE
    if n % 4 == 2:
        # Q(zeta_2m) = Q(zeta_m) for odd m: zeta_2m = -zeta_m^((m+1)/2)
        m = n // 2
        r = zeta(m, (k * ((m + 1) // 2)) % m)
        return r if k % 2 == 0 else -r
    return Cyc(n, _powtab(n)[k])


ZERO = Cyc.rational(0)
ONE = Cyc.rational(1)
MINUS_ONE = Cyc.rational(-1)
I = zeta(4, 1)
HALF = Cyc.rational(1, 2)
