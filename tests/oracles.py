"""Independent brute-force oracles used to pin down engine expectations.

``dense_rref`` is the textbook dense Gauss-Jordan elimination that
``Matrix.rref`` is checked against; ``dense_eigenvectors`` reads the
kernel of stacked C - lam rows off it, the reference for
``linalg.eigenvectors``.

``zassenhaus_intersect`` is the doubled-coordinate intersection: it
eliminates both operands anew, the reference for
``Subspace.intersect``, which reuses the larger operand's echelon.

``augmentation_module`` builds A * S_+ or S_+ * A from every slice of a
subalgebra S (``subalgebra_slices``), the reference for the covariant
ideals, which the engine builds from the generators of S alone.

``pairwise_integral_span`` spans (1#Λ)(b#k) over every basis pair of
A_d x H, the reference for ``smash.integral_span_slices``, which uses
the (1#Λ)(a#1) alone.  ``pertinency_one_at_a_time`` grows the
pertinency slices from it, adding one image at a time in generator
order, the reference for ``smash.pertinency_slices``, whose
``ncalg.push_left`` inserts each degree as one batch.

``fixed_ring_all_pairs`` spans (R_+)^2_d from every product R_e R_{d-e},
the reference for ``invariants.fixed_ring``, which spans it from the
generators found below d.  ``pairwise_intersection`` builds A·A_g for
every component, the one holding 1 included, and intersects them one
pair at a time, the reference for ``smash.dual_group_shortcut`` and its
one-kernel ``linalg.intersect_all``.

``normal_in_every_degree`` compares x * S_d with S_d * x in every
degree, the reference for ``ncalg.is_normal``, which compares them only
in the generator degrees of S.  ``isotypic_images`` spans the image of
every idempotent on every basis word, the reference for
``structure.isotypic_series``, which reads the images of the character
projectors off the components.

``transfer_by_products`` forms every product of two grouplike slices,
intersects each component with the grouplike slices and takes the
minimal generators of the intersections anew, the reference for
``structure.jacobian_transfer``, which reads all three off the certified
components.

``constrained_left_ideal``, ``matrix_block_units`` and
``kac_palyutkin_idempotents`` are the closed-form pieces of the
Kac-Paljutkin radical the tests check the engine against; ``is_abelian``
and ``direct_product`` build and test small groups.

``FractionCyc`` is the textbook cyclotomic scalar: ``Fraction``
coefficients modulo Phi_n, products by convolution and power-table
reduction, inverses by the extended Euclidean algorithm over Q[z], and
``key()`` by a dense solve against the embedded subfield bases.  It is
the reference for the integer representation of ``scalars.Cyc``.

The quotient oracle builds each graded slice the slow, obviously-correct
way: enumerate every free word of the degree, span the full two-sided
relation-ideal slice u * rho * v inside the free slice, and eliminate.
The engine's recursive construction must reproduce its basis and normal
forms exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ncreflect.exprs import FreePoly, Word, p_degree
from ncreflect.hopf import Group
from ncreflect.invariants import series_is_polynomial, series_quotient
from ncreflect.linalg import SparseEch, Subspace, apply_cols
from ncreflect.ncalg import (
    Elem,
    left_ideal_slices,
    monic,
    mul_elem_space,
    mul_space_elem,
    products_inside,
)
from ncreflect.scalars import (
    I,
    MINUS_ONE,
    ZERO,
    Cyc,
    ONE,
    coerce,
    cyclotomic,
    divisors,
    euler_phi,
)


def dense_rref(rows: list[list]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row-echelon form (zero rows last) and the pivot columns."""
    m = [[coerce(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def dense_eigenvectors(dim: int, maps) -> list[dict]:
    """Common eigenvectors of maps given as (columns, lam): the right
    kernel of the stacked dense rows of every C - lam, one sparse vector
    per free column of its RREF, in ascending order."""
    rows = [
        [cols[c].get(r, ZERO) - (lam if c == r else ZERO) for c in range(dim)]
        for cols, lam in maps
        for r in range(dim)
    ]
    red, pivots = dense_rref(rows) if rows else ([], [])
    out = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [ZERO] * dim
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append({k: x for k, x in enumerate(v) if not x.is_zero()})
    return out


def zassenhaus_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V by Zassenhaus: reduce rows (u|u) and (v|0) in dimension 2n;
    the rows pivoting in the right block have a zero left block, and
    their right parts span U ∩ V."""
    n = u.ambient
    work = SparseEch(2 * n)
    for row in u.basis():
        doubled = dict(row)
        for k, x in row.items():
            doubled[k + n] = x
        work.insert(doubled)
    for row in v.basis():
        work.insert(row)
    return Subspace.span(n, [{k - n: x for k, x in row.items()}
                             for p, row in work.rows.items() if p >= n])


def augmentation_module(alg, sub_slices, max_degree: int, side: str) -> list[Subspace]:
    """Slices of A * S_+ (side "left") or S_+ * A (side "right"), by the
    recursion M_d = S_d + sum_i x_i M_{d - w_i} (or M_{d - w_i} x_i)."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace(alg.dim(d))
        if 1 <= d < len(sub_slices):
            for v in sub_slices[d].basis():
                acc.add(v)
        for i, w in enumerate(alg.weights):
            if w <= d:
                letter = alg.left_letter if side == "left" else alg.right_letter
                cols = letter(i, d - w)
                for v in out[d - w].basis():
                    acc.add(apply_cols(cols, v))
        out.append(acc)
    return out


def subalgebra_slices(alg, gens, max_degree: int) -> list[Subspace]:
    """Slices of the unital subalgebra generated by gens (degree 0 is k)."""
    out = [alg.slice_space(0)]
    for d in range(1, max_degree + 1):
        acc = Subspace(alg.dim(d))
        for g in gens:
            if g.degree == d and not g.is_zero():
                acc.add(g.vec)
        for g in gens:
            if 0 < g.degree <= d and not g.is_zero():
                for v in out[d - g.degree].basis():
                    acc.add(alg.mul(v, d - g.degree, g.vec, g.degree))
        out.append(acc)
    return out


def pairwise_integral_span(sm, max_degree: int) -> list[Subspace]:
    """S_d = span{(1#Λ)(b#k)} over basis pairs of A_d x H."""
    lam = sm.unit_integral()
    out = []
    for d in range(max_degree + 1):
        space = Subspace(sm.dim(d))
        for key in range(sm.dim(d)):
            space.add(sm.mul(lam, 0, {key: ONE}, d))
        out.append(space)
    return out


def pertinency_one_at_a_time(sm, max_degree: int) -> list[Subspace]:
    """Slices of the pertinency ideal by the recursion P_d = S_d + sum_i
    (x_i # 1) P_{d - w_i}, each image added on its own."""
    out = pairwise_integral_span(sm, max_degree)
    for d in range(max_degree + 1):
        for i, w in enumerate(sm.weights):
            if w <= d:
                cols = sm.left_letter(i, d - w)
                for v in out[d - w].basis():
                    out[d].add(apply_cols(cols, v))
    return out


def fixed_ring_all_pairs(alg, slices, max_degree: int):
    """(generator degrees, monic generators) of the subalgebra with the
    given slices: in each degree, the basis vectors outside the span of
    every product of two slices of positive degree."""
    gen_degrees, gens = [], []
    for d in range(1, max_degree + 1):
        span = Subspace(alg.dim(d))
        for e in range(1, d):
            for u in slices[e].basis():
                for v in slices[d - e].basis():
                    span.add(alg.mul(u, e, v, d - e))
        for vec in slices[d].basis():
            if span.add(vec):
                gen_degrees.append(d)
                gens.append(monic(alg, d, vec))
    return gen_degrees, gens


def pairwise_intersection(alg, comp_slices, max_degree: int) -> list[Subspace]:
    """Slices of the intersection of the left ideals A·A_g over every
    component, each degree folded one pair at a time."""
    ideals = [left_ideal_slices(alg, [Elem(alg, d, v) for d in range(max_degree + 1)
                                      for v in slices[d].basis()], max_degree)
              for slices in comp_slices]
    out = []
    for d in range(max_degree + 1):
        acc = ideals[0][d]
        for ideal in ideals[1:]:
            acc = acc.intersect(ideal[d])
        out.append(acc)
    return out


def normal_in_every_degree(alg, x, slices, max_degree: int) -> bool:
    """x * S_d = S_d * x for every d with d + deg x within the bound."""
    return all(
        mul_elem_space(alg, x, slices[d], d) == mul_space_elem(alg, slices[d], d, x)
        for d in range(max_degree - x.degree + 1)
    )


def isotypic_images(action, comp_slices, idempotents, max_degree: int):
    """(every image equals its component, the sum of the images) with the
    image of p_i on A_d spanned from p_i applied to every basis word."""
    matches = True
    grouplike = []
    for d in range(max_degree + 1):
        dim = action.alg.dim(d)
        union = Subspace(dim)
        for i, p in enumerate(idempotents):
            image = Subspace(dim)
            for k in range(dim):
                image.add(action.act(p, {k: ONE}, d))
            if image != comp_slices[i][d]:
                matches = False
            for v in image.basis():
                union.add(v)
        grouplike.append(union)
    return matches, grouplike


def transfer_by_products(alg, chars, comp_slices, fixed_dims, grouplike, j, max_degree: int):
    """(closed under products, xi', hdet' index, j', j' proportional to j)
    for the subalgebra with the given grouplike slices: every product of
    two slices tested against the slice of their degree, and the top
    component generator found among the minimal elements of each
    component intersected with the slices."""
    closed = all(
        products_inside(alg, grouplike[e], e, grouplike[f], f, grouplike[e + f])
        for e in range(max_degree + 1)
        for f in range(max_degree + 1 - e)
    )
    xi = series_quotient([s.dim for s in grouplike], fixed_dims, max_degree)
    ok, top = series_is_polynomial(xi)
    if not ok:
        return closed, xi, None, None, None
    gens = []
    for i, slices in enumerate(comp_slices):
        start = 0 if i == chars.group.identity else 1
        inside = [slices[d].intersect(grouplike[d]) for d in range(start, max_degree + 1)]
        d, first = next(((d, s) for d, s in enumerate(inside, start) if s.dim), (None, None))
        gens.append(None if first is None or first.dim > 1
                    else monic(alg, d, first.basis()[0]))
    hits = [i for i, f in enumerate(gens) if f is not None and f.degree == top]
    if len(hits) != 1:
        return closed, xi, None, None, None
    f = gens[hits[0]]
    both = Subspace.span(alg.dim(f.degree), [f.vec, j.vec]) if f.degree == j.degree else None
    return closed, xi, chars.group.inverse[hits[0]], f, both is not None and both.dim == 1


def constrained_left_ideal(action, terms, max_degree: int) -> list[Subspace]:
    """Slices of {w : w = Σ b (n·a), 0 = Σ b (z·a)} where each summand
    runs over one (n, z) pair of H-elements and arbitrary a, b in A.

    Per degree this is the image of the combined bilinear map intersected
    with (A_d, 0); the b-factor makes every slice family a left ideal.
    """
    alg = action.alg
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        dim = alg.dim(d)
        paired = Subspace(2 * dim)
        for n, z in terms:
            for f in range(d + 1):
                e = d - f
                for a in range(alg.dim(f)):
                    na = action.act(n, {a: ONE}, f)
                    za = action.act(z, {a: ONE}, f)
                    for b in range(alg.dim(e)):
                        top = alg.mul({b: ONE}, e, na, f)
                        bot = alg.mul({b: ONE}, e, za, f)
                        vec = dict(top)
                        for k, c in bot.items():
                            vec[dim + k] = c
                        paired.add(vec)
        window = Subspace.span(2 * dim, [{k: ONE} for k in range(dim)])
        inter = zassenhaus_intersect(paired, window)
        out.append(Subspace.span(dim, [dict(v) for v in inter.basis()]))
    return out


def kac_palyutkin_idempotents() -> list[dict]:
    """The central idempotents of the Kac-Paljutkin algebra for eps, g,
    gp, ggp in closed form."""
    eighth = Cyc.rational(1, 8)
    plus = {i: eighth for i in range(8)}  # (1+x+y+xy+z+xz+yz+xyz)/8
    minus = {i: (eighth if i < 4 else -eighth) for i in range(8)}
    block = [ONE, MINUS_ONE, MINUS_ONE, ONE]  # 1 - x - y + xy
    p_gp: dict = {}
    p_ggp: dict = {}
    for i in range(4):
        p_gp[i] = block[i] * eighth
        p_ggp[i] = block[i] * eighth
        p_gp[i + 4] = I * block[i] * eighth
        p_ggp[i + 4] = -I * block[i] * eighth
    return [plus, minus, p_gp, p_ggp]


def matrix_block_units() -> dict[str, dict]:
    """The 2x2 matrix block of the Kac-Paljutkin algebra complementary to
    the character idempotents: diagonal units f3 = (1-x+y-xy)/4 and
    f4 = (1+x-y-xy)/4, off-diagonal units m12 = f3 z = z f4 and
    m21 = f4 z = z f3."""
    q = Cyc.rational(1, 4)
    return {
        "f3": {0: q, 1: -q, 2: q, 3: -q},
        "f4": {0: q, 1: q, 2: -q, 3: -q},
        "m12": {4: q, 5: -q, 6: q, 7: -q},
        "m21": {4: q, 5: q, 6: -q, 7: -q},
    }


def is_abelian(group: Group) -> bool:
    return all(group.table[a][b] == group.table[b][a]
               for a in range(group.order) for b in range(group.order))


def direct_product(a: Group, b: Group) -> Group:
    """a x b, element (i, j) at index i * |b| + j, labelled "e", a single
    factor's label, or "ai.bj"."""
    labels = []
    for i in range(a.order):
        for j in range(b.order):
            if i == a.identity and j == b.identity:
                labels.append("e")
            elif i == a.identity:
                labels.append(b.labels[j])
            elif j == b.identity:
                labels.append(a.labels[i])
            else:
                labels.append(f"{a.labels[i]}.{b.labels[j]}")
    n = b.order
    table = [
        [a.table[i][k] * n + b.table[j][m] for k in range(a.order) for m in range(b.order)]
        for i in range(a.order)
        for j in range(b.order)
    ]
    return Group(labels, table)


def free_words(nletters: int, weights: list[int], degree: int) -> list[Word]:
    if degree == 0:
        return [()]
    out: list[Word] = []
    for i in range(nletters):
        if weights[i] <= degree:
            out.extend((i,) + rest for rest in free_words(nletters, weights, degree - weights[i]))
    return out


class QuotientOracle:
    """Full free-slice elimination of a presentation, one degree at a time."""

    def __init__(self, nletters: int, relations: list[FreePoly], weights: list[int] | None = None):
        self.nletters = nletters
        self.weights = weights if weights is not None else [1] * nletters
        self.relations = relations

    def slice(self, degree: int):
        words = sorted(free_words(self.nletters, self.weights, degree), reverse=True)
        idx = {w: c for c, w in enumerate(words)}
        ech = SparseEch(len(words))
        for rel in self.relations:
            n = p_degree(rel, self.weights)
            for a in range(degree - n + 1):
                for u in free_words(self.nletters, self.weights, a):
                    for v in free_words(self.nletters, self.weights, degree - n - a):
                        vec: dict[int, Cyc] = {}
                        for w, c in rel.items():
                            pos = idx[u + w + v]
                            cur = vec.get(pos)
                            new = c if cur is None else cur + c
                            if new.is_zero():
                                if cur is not None:
                                    del vec[pos]
                            else:
                                vec[pos] = new
                        ech.insert(vec)
        normal = sorted(words[c] for c in range(len(words)) if c not in ech.rows)
        return words, idx, ech, normal

    def dim(self, degree: int) -> int:
        return len(self.slice(degree)[3])

    def basis(self, degree: int) -> list[Word]:
        return self.slice(degree)[3]

    def nf(self, word: Word) -> dict[Word, Cyc]:
        degree = sum(self.weights[i] for i in word)
        words, idx, ech, _ = self.slice(degree)
        reduced = ech.reduce({idx[word]: ONE})
        return {words[c]: coeff for c, coeff in reduced.items()}


# ---------------------------------------------------------------------------
# the Fraction cyclotomic scalar


_FRACTION_POW: dict[int, list[tuple[Fraction, ...]]] = {}


def _fraction_powtab(n: int) -> list[tuple[Fraction, ...]]:
    """Row e is zeta_n^e reduced modulo Phi_n, for 0 <= e < n."""
    if n in _FRACTION_POW:
        return _FRACTION_POW[n]
    phi = euler_phi(n)
    top = [-Fraction(c) for c in cyclotomic(n)[:phi]]  # z^phi = top(z)
    rows = []
    cur = [Fraction(0)] * phi
    cur[0] = Fraction(1)
    for _ in range(n):
        rows.append(tuple(cur))
        spill = cur[phi - 1]
        cur = [Fraction(0)] + cur[: phi - 1]
        if spill:
            cur = [a + spill * t for a, t in zip(cur, top)]
    _FRACTION_POW[n] = rows
    return rows


def _fraction_embtab(n: int, m: int) -> list[tuple[Fraction, ...]]:
    """Row j is zeta_n^j expressed in the conductor-m basis (n divides m)."""
    pw = _fraction_powtab(m)
    return [pw[(j * (m // n)) % m] for j in range(euler_phi(n))]


def _fraction_poly_inverse(a: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    """Inverse of a modulo Phi (extended Euclid over Q[z])."""

    def strip(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = [Fraction(c) for c in phi], strip(list(a))
    s0, s1 = [], [Fraction(1)]
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


def _fraction_solve(rows: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]):
    """x with sum_j x_j rows[j] == target, or None (rows independent)."""
    k, dim = len(rows), len(target)
    # augmented system: one equation per coordinate, one unknown per row
    m = [[rows[j][t] for j in range(k)] + [target[t]] for t in range(dim)]
    r = 0
    pivots = []
    for col in range(k):
        hit = next((i for i in range(r, dim) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(dim):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if any(m[i][k] for i in range(r, dim)):
        return None
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = m[i][k]
    return tuple(x)


class FractionCyc:
    """An element of Q(zeta_n): Fraction coefficients modulo Phi_n.

    The same invariant as ``Cyc``: a rational value has conductor 1.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, c):
        c = tuple(Fraction(x) for x in c)
        if n != 1 and not any(c[1:]):
            n, c = 1, (c[0],)
        self.n = n
        self.c = c

    def _lift(self, m: int) -> tuple[Fraction, ...]:
        if m == self.n:
            return self.c
        out = [Fraction(0)] * euler_phi(m)
        for cj, row in zip(self.c, _fraction_embtab(self.n, m)):
            for t in range(len(out)):
                out[t] += cj * row[t]
        return tuple(out)

    def _join(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(1, (other,))
        m = self.n * other.n // gcd(self.n, other.n)
        return m, self._lift(m), other._lift(m)

    def is_zero(self) -> bool:
        return self.n == 1 and not self.c[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational scalar")
        return self.c[0]

    def __add__(self, other):
        n, a, b = self._join(other)
        return FractionCyc(n, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n, a, b = self._join(other)
        return FractionCyc(n, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return FractionCyc(self.n, [-x for x in self.c])

    def __mul__(self, other):
        n, a, b = self._join(other)
        phi = len(a)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        out = conv[:phi]
        pw = _fraction_powtab(n) if phi > 1 else None
        for e in range(phi, 2 * phi - 1):
            for t in range(phi):
                out[t] += conv[e] * pw[e % n][t]
        return FractionCyc(n, out)

    def inverse(self):
        if self.n == 1:
            if not self.c[0]:
                raise ZeroDivisionError("scalar division by zero")
            return FractionCyc(1, (1 / self.c[0],))
        inv = _fraction_poly_inverse(list(self.c), cyclotomic(self.n))
        phi = euler_phi(self.n)
        return FractionCyc(self.n, (inv + [Fraction(0)] * phi)[:phi])

    def __truediv__(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(1, (other,))
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        n, a, b = self._join(other)
        return a == b

    def key(self) -> tuple:
        """Coefficients at the minimal conductor."""
        n, c = self.n, self.c
        if n != 1:
            for d in divisors(n)[:-1]:
                sol = _fraction_solve(_fraction_embtab(d, n), c)
                if sol is not None:
                    return d, sol
        return n, c

    def __hash__(self) -> int:
        return hash(self.key())
