"""Exact arithmetic in cyclotomic fields.

Every scalar used by the engine is an element of Q(zeta_N), stored as the
unique residue modulo the N-th cyclotomic polynomial Phi_N: a conductor
``n``, a tuple ``nums`` of phi(n) integer numerators and one integer
denominator ``den``, the value being sum_j nums[j] * zeta_n^j / den.
Reducing modulo Phi_N rather than z^N - 1 makes the representation a
field, so equality is coefficient equality and zero-testing is exact —
which is what every rank computation downstream leans on.

Normal form: ``den > 0``, ``gcd(den, *nums) == 1``, and a rational value
has conductor 1 (``nums`` of length 1), so the common rational case never
pays cyclotomic overhead.  Phi_N is monic with integer coefficients, so
zeta_N^e reduced modulo Phi_N has integer coefficients: a product
convolves integer numerators and reduces them with integer rows, and no
``Fraction`` is built on an arithmetic path.  ``c`` and ``key()`` give
the coefficients as ``Fraction`` values for printing and hashing.

Mixed-conductor arithmetic promotes both operands to the least common
conductor via the standard embedding zeta_N -> zeta_M^(M/N); a rational
operand joins at coefficient 0 with no table.  Values are immutable; the
per-conductor tables are filled idempotently, so concurrent readers are
safe.  No table is built for a conductor above ``MAX_CONDUCTOR``.

``addmul(a, x, c)`` is the step of every sparse accumulation and
elimination loop: it returns a + x * c in the normal form above, the
same ``(n, nums, den)`` as ``a + x * c``, and builds one value instead of
two.  ``None`` stands for zero both ways: a = None is 0, and a sum that
cancels is None, so a loop deletes its entry.  x and c must be nonzero.
Into an empty target (a = None) a unit factor costs no arithmetic: a
factor that is the shared ``ONE`` returns the other one, and the shared
``MINUS_ONE`` returns the other one negated.  Most calls of the
elimination loops are of this kind.  Every value is immutable and in
normal form, so the copy is the value the product would build; an equal
but unshared 1 takes the general path to the same result.

Shared integers: the integers p / 1 with |p| <= ``SMALL_INT`` are built
once, at import, and ``_raw``, which every arithmetic path ends in,
returns the shared instance for one of them.  Nearly every value the
elimination loops of the shipped presets form is such an integer, most
of them 0 or ±1.  Sharing changes no result: a value is immutable, and
the ``_key`` that ``key()`` caches depends only on the value.

Hashing: a rational value hashes as its ``Fraction``, so it hashes like
the equal int or ``Fraction`` (``{ONE: x}.get(1)`` finds x); any other
value hashes by ``key()``, its coefficients at its minimal conductor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import add, neg, sub

# The largest conductor the scalar layer builds tables for.  The tables of
# conductor N walk up to N powers of zeta_N and hold up to phi(N)^2
# integers, and a product there costs phi(N)^2 integer operations, so the
# bound keeps a hostile input from an unbounded allocation.
MAX_CONDUCTOR = 1000


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
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds the maximum {MAX_CONDUCTOR}")
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


def _power_rows(n: int):
    """zeta_n^e reduced modulo Phi_n, for e = 0, 1, 2, ... in turn."""
    poly = cyclotomic(n)
    phi = len(poly) - 1
    top = [-c for c in poly[:phi]]  # z^phi = top(z)
    cur = [0] * phi
    cur[0] = 1
    while True:
        yield tuple(cur)
        spill = cur[-1]
        cur = [0] + cur[:-1]
        if spill:
            cur = [a + spill * t for a, t in zip(cur, top)]


_RED: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}


def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i holds the nonzero (t, c) of zeta_n^(phi + i) modulo Phi_n,
    for the exponents phi .. 2 phi - 2 a product of residues reaches."""
    got = _RED.get(n)
    if got is None:
        phi = euler_phi(n)
        rows = islice(_power_rows(n), phi, 2 * phi - 1)
        got = _RED[n] = tuple(
            tuple((t, c) for t, c in enumerate(row) if c) for row in rows)
    return got


_EMB: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
_SUBFIELD: dict[tuple[int, int], object] = {}  # (d, n) -> linalg.Expressor of _embtab(d, n)


def _embtab(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Row j is zeta_n^j expressed in the conductor-m basis (n divides m)."""
    got = _EMB.get((n, m))
    if got is None:
        step = m // n
        got = _EMB[(n, m)] = tuple(
            islice(_power_rows(m), 0, (euler_phi(n) - 1) * step + 1, step))
    return got


# ---------------------------------------------------------------------------
# arithmetic on integer numerator tuples at one conductor


def _mul_nums(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b modulo Phi_n, for numerator tuples a and b at conductor n."""
    if n == 4:
        # Q(i) carries most cyclotomic products of the shipped presets, and
        # the closed form skips the list and the loops of the 2^k path below
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                conv[k] += x * y
    if not n & (n - 1):
        # Phi_n = z^phi + 1 for n a power of two: z^(phi + t) = -z^t
        return tuple(map(sub, conv[:phi - 1], conv[phi:])) + (conv[phi - 1],)
    out = conv[:phi]
    for ce, row in zip(conv[phi:], _reduction_rows(n)):
        if ce:
            for t, r in row:
                out[t] += ce * r
    return tuple(out)


def _poly_inverse(a: tuple[int, ...], phi: tuple[int, ...]) -> list[Fraction]:
    """Inverse of a modulo Phi (extended Euclid over Q[z])."""

    def strip(p: list) -> list:
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = [Fraction(c) for c in phi], strip([Fraction(c) for c in a])
    s0: list[Fraction] = []
    s1: list[Fraction] = [Fraction(1)]
    while r1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
        r = list(r0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + len(r1) - 1] / r1[-1]
            q[k] = c
            if c:
                for j, dj in enumerate(r1):
                    r[k + j] -= c * dj
        strip(r)
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1) if (q and s1) else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] += qi * sj
        news = [Fraction(0)] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            news[i] += c
        for i, c in enumerate(qs1):
            news[i] -= c
        r0, r1, s0, s1 = r1, r, s1, strip(news)
    if len(r0) != 1:
        raise ZeroDivisionError("scalar division by zero")
    return [c / r0[0] for c in s0]


_new = object.__new__

# The integers p / 1 with |p| <= SMALL_INT, one shared Cyc each (filled at
# the end of the module).  Of the integers _raw forms for e22, e42,
# cyclic(z3,2,3) and mystic(2,4) at degree bound 24, 95% are 0 or ±1,
# 99.5% lie within 32 and 99.9% within 64.
SMALL_INT = 64
_SMALL: dict[int, "Cyc"] = {}


def _raw(n: int, nums: tuple[int, ...], den: int) -> "Cyc":
    """A Cyc from parts already in normal form."""
    if n == 1 and den == 1:
        x = _SMALL.get(nums[0])
        if x is not None:
            return x
    x = _new(Cyc)
    x.n = n
    x.nums = nums
    x.den = den
    return x


def _make(n: int, nums: tuple[int, ...], den: int) -> "Cyc":
    """A Cyc from parts with den > 0, brought to normal form."""
    if n != 1 and not any(nums[1:]):
        n, nums = 1, nums[:1]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(map(g.__rfloordiv__, nums))
            den //= g
    return _raw(n, nums, den)


def _from_fractions(n: int, c) -> "Cyc":
    """The Cyc with power-basis coefficients c (ints or Fractions)."""
    fracs = [Fraction(x) for x in c]
    den = 1
    for f in fracs:
        den = _lcm(den, f.denominator)
    return _make(n, tuple(f.numerator * (den // f.denominator) for f in fracs), den)


def _scale(x: "Cyc", p: int, q: int) -> "Cyc":
    """x * p / q for a nonzero rational p / q in lowest terms, q > 0."""
    nums, den = x.nums, x.den
    if den != 1:
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
    if q != 1:
        g = gcd(q, *nums)
        if g != 1:
            q //= g
            nums = tuple(map(g.__rfloordiv__, nums))
    if p != 1:
        nums = tuple(map(p.__mul__, nums))
    return _raw(x.n, nums, q * den)


def _combine(a: "Cyc", b: "Cyc", op) -> "Cyc":
    """a + b (op = operator.add) or a - b (op = operator.sub)."""
    n = a.n
    da, db = a.den, b.den
    if n == b.n:
        if da == db:
            return _make(n, tuple(map(op, a.nums, b.nums)), da)
        an, bn = a.nums, b.nums
    elif n == 1:
        n = b.n
        an, bn = a.nums + (0,) * (len(b.nums) - 1), b.nums
    elif b.n == 1:
        an, bn = a.nums, b.nums + (0,) * (len(a.nums) - 1)
    else:
        n = _lcm(n, b.n)
        an, bn = a._lift(n), b._lift(n)
        if da == db:
            return _make(n, tuple(map(op, an, bn)), da)
    # a / da op b / db over (da / g) * db, as Fraction adds: only primes
    # dividing g = gcd(da, db) can divide both the result and that
    g = gcd(da, db)
    sa, sb = db // g, da // g
    nums = tuple(map(op, map(sa.__mul__, an), map(sb.__mul__, bn)))
    den = sb * db
    if n != 1 and not any(nums[1:]):
        n, nums = 1, nums[:1]
    if g != 1:
        g = gcd(g, *nums)
        if g != 1:
            nums = tuple(map(g.__rfloordiv__, nums))
            den //= g
    return _raw(n, nums, den)


def addmul(a: "Cyc | None", x: "Cyc", c: "Cyc") -> "Cyc | None":
    """a + x * c in normal form, with None for zero both ways: a = None is
    0, and a sum that cancels is None.  x and c must be nonzero.

    The product stays an unreduced numerator tuple over x.den * c.den and
    joins a at once, so one gcd normalises the sum.  Every step keeps the
    conductor ``a + x * c`` would reach (the normal form is unique at a
    conductor), and a mix of conductors the joins below do not cover goes
    through ``a + x * c`` itself."""
    if a is None:
        # x * 1 is x and x * -1 is -x, both already in normal form
        if c is ONE:
            return x
        if x is ONE:
            return c
        if c is MINUS_ONE:
            return -x
        if x is MINUS_ONE:
            return -c
    n = x.n
    if n == c.n:
        if n == 1:
            p, q = x.nums[0] * c.nums[0], x.den * c.den
            if a is None:
                if q == 1:
                    return _raw(1, (p,), 1)
                g = gcd(p, q)
                return _raw(1, (p // g,), q // g) if g != 1 else _raw(1, (p,), q)
            if a.n == 1:
                da = a.den
                if da == 1 and q == 1:
                    p += a.nums[0]
                    return _raw(1, (p,), 1) if p else None
                p = a.nums[0] * q + p * da
                if not p:
                    return None
                q *= da
                g = gcd(p, q)
                return _raw(1, (p // g,), q // g) if g != 1 else _raw(1, (p,), q)
            nums = (p,)
        elif n == 4:
            # the closed form of _mul_nums, for Q(i)
            (a0, a1), (b0, b1) = x.nums, c.nums
            nums = (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
            q = x.den * c.den
        else:
            nums = _mul_nums(n, x.nums, c.nums)
            q = x.den * c.den
    elif n == 1:
        if a is None:
            return _scale(c, x.nums[0], x.den)
        p, n = x.nums[0], c.n
        nums = tuple(map(p.__mul__, c.nums))
        q = x.den * c.den
    elif c.n == 1:
        if a is None:
            return _scale(x, c.nums[0], c.den)
        p = c.nums[0]
        nums = tuple(map(p.__mul__, x.nums))
        q = x.den * c.den
    else:
        s = x * c if a is None else a + x * c
        return s if s.n != 1 or s.nums[0] else None
    # the product is nums / q at conductor n, not yet in lowest terms
    if a is None:
        return _make(n, nums, q)
    m, da = a.n, a.den
    if m == n:
        if da == 1 and q == 1:
            nums = tuple(map(add, a.nums, nums))
        else:
            nums = tuple(map(add, map(q.__mul__, a.nums), map(da.__mul__, nums)))
            q *= da
    elif m == 1:
        nums = (a.nums[0] * q + nums[0] * da,) + tuple(map(da.__mul__, nums[1:]))
        q *= da
    elif n == 1:
        n = m
        nums = (a.nums[0] * q + nums[0] * da,) + tuple(map(q.__mul__, a.nums[1:]))
        q *= da
    else:
        s = _combine(a, _make(n, nums, q), add)
        return s if s.n != 1 or s.nums[0] else None
    if not any(nums):
        return None
    return _make(n, nums, q)


# ---------------------------------------------------------------------------


class Cyc:
    """An element of Q(zeta_n): integer numerators over one denominator,
    modulo Phi_n, in the normal form of the module docstring.

    ``Cyc(n, coeffs)`` takes the phi(n) power-basis coefficients as ints
    or Fractions.
    """

    __slots__ = ("n", "nums", "den", "_key")  # _key is set by key()

    def __init__(self, n: int, c):
        x = _from_fractions(n, c)
        self.n, self.nums, self.den = x.n, x.nums, x.den

    # -- construction -------------------------------------------------

    @staticmethod
    def rational(p, q: int = 1) -> "Cyc":
        f = Fraction(p, q)
        return _raw(1, (f.numerator,), f.denominator)

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- coercion and promotion ---------------------------------------

    def _lift(self, m: int) -> tuple[int, ...]:
        """The numerators at conductor m (a multiple of n), same den."""
        if m == self.n:
            return self.nums
        emb = _embtab(self.n, m)
        out = [0] * len(emb[0])
        for cj, row in zip(self.nums, emb):
            if cj:
                for t, r in enumerate(row):
                    if r:
                        out[t] += cj * r
        return tuple(out)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == 1 and not self.nums[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational scalar")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = coerce(other)
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = coerce(other)
        return _combine(self, other, sub)

    def __rsub__(self, other) -> "Cyc":
        return coerce(other).__sub__(self)

    def __neg__(self) -> "Cyc":
        if self.n == 1:
            return _raw(1, (-self.nums[0],), self.den)
        return _raw(self.n, tuple(map(neg, self.nums)), self.den)

    def __mul__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = coerce(other)
        if self.n == 1:
            p = self.nums[0]
            if not p:
                return ZERO
            if other.n == 1:
                # p / q * r / s, cancelled as Fraction multiplies
                q, r, s = self.den, other.nums[0], other.den
                if q == 1 and s == 1:
                    return _raw(1, (p * r,), 1)
                g1, g2 = gcd(p, s), gcd(r, q)
                return _raw(1, ((p // g1) * (r // g2),), (q // g2) * (s // g1))
            return _scale(other, p, self.den)
        if other.n == 1:
            p = other.nums[0]
            return _scale(self, p, other.den) if p else ZERO
        n = self.n
        if n == other.n:
            nums = _mul_nums(n, self.nums, other.nums)
        else:
            n = _lcm(n, other.n)
            nums = _mul_nums(n, self._lift(n), other._lift(n))
        return _make(n, nums, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        n, nums, den = self.n, self.nums, self.den
        if n == 1:
            p = nums[0]
            if not p:
                raise ZeroDivisionError("scalar division by zero")
            return _raw(1, (den,), p) if p > 0 else _raw(1, (-den,), -p)
        poly = cyclotomic(n)
        if len(nums) == 2:
            # phi = 2 (conductors 3 and 4, which carry most inverses of the
            # shipped presets) in closed form, with no Fraction built: the
            # conjugate of z is -p1 - z since z^2 = -p0 - p1 z, so
            # (a0 + a1 z)(a0 - a1 p1 - a1 z) is the norm a0^2 - p1 a0 a1 + p0 a1^2
            (a0, a1), (p0, p1) = nums, poly[:2]
            norm = a0 * a0 - p1 * a0 * a1 + p0 * a1 * a1
            conj = ((a0 - a1 * p1) * den, -a1 * den)
            if norm < 0:
                norm, conj = -norm, (-conj[0], -conj[1])
            return _make(n, conj, norm)
        inv = _poly_inverse(nums, poly)
        return _from_fractions(n, [den * x for x in inv] + [0] * (len(nums) - len(inv)))

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
            return self.nums == other.nums and self.den == other.den
        m = _lcm(self.n, other.n)
        da, db = self.den, other.den
        return all(x * db == y * da for x, y in zip(self._lift(m), other._lift(m)))

    def key(self) -> tuple:
        """Canonical hashable form: (minimal conductor, Fraction coefficients)."""
        try:
            return self._key
        except AttributeError:
            pass
        n, c = self.n, self.c
        if n != 1:
            for d in divisors(n)[:-1]:
                sol = _express_in_subfield(c, d, n)
                if sol is not None:
                    n, c = d, sol
                    break
        self._key = (n, c)
        return self._key

    def key_at(self, m: int) -> tuple:
        """Canonical form among the values of Q(zeta_m), n | m, with no solve:
        a lift of numerators in lowest terms stays in lowest terms."""
        return self._lift(m), self.den

    def __hash__(self) -> int:
        # as the equal int or Fraction, which == already treats as equal
        if self.n == 1:
            return hash(Fraction(self.nums[0], self.den))
        return hash(self.key())

    def __repr__(self) -> str:
        if self.n == 1:
            return f"Cyc({self.as_fraction()})"
        return f"Cyc(z{self.n}:{list(self.c)})"


def _express_in_subfield(c: tuple[Fraction, ...], d: int, n: int) -> tuple[Fraction, ...] | None:
    """Solve for coefficients over the conductor-d basis inside Q(zeta_n)."""
    from .linalg import Expressor, vec_from_dense

    ex = _SUBFIELD.get((d, n))
    if ex is None:
        ex = Expressor(len(c), [vec_from_dense(row) for row in _embtab(d, n)])
        _SUBFIELD[(d, n)] = ex
    sol = ex.coeffs(vec_from_dense(c))
    return None if sol is None else tuple(x.as_fraction() for x in sol)


def coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, int):
        return _raw(1, (int(x),), 1)
    if isinstance(x, Fraction):
        return _raw(1, (x.numerator,), x.denominator)
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
    x = _raw(n, next(islice(_power_rows(n), k, None)), 1)
    x._key = (n, x.c)  # a primitive n-th root: n is its minimal conductor
    return x


_SMALL.update((p, _raw(1, (p,), 1)) for p in range(-SMALL_INT, SMALL_INT + 1))
ZERO = _SMALL[0]
ONE = _SMALL[1]
MINUS_ONE = _SMALL[-1]
I = zeta(4, 1)
HALF = Cyc.rational(1, 2)
