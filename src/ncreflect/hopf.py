"""Finite-dimensional Hopf algebras, their characters, and their actions.

A Hopf algebra is stored by structure constants over a fixed basis:
multiplication and antipode as sparse vectors, comultiplication as a list
of (left, right, coefficient) triples per basis element.  ``verify``
checks every axiom and reports witnesses instead of trusting input.  The
conditions that are multiplicative in one factor (associativity, and Δ
and ε being algebra maps) are checked with that factor running over a
set of algebra generators (``HopfAlgebra.generators``), which decides
them for all of H (docs/component-grading.md, "H is checked at its
algebra generators").  So are the integral and the character projectors.
The kG and k^G of a validated group table are their own types, which
hold their ``Group`` and read off it, here and nowhere else, what it
implies: the Hopf axioms, kG's integral, the projectors, dim I_com, the
character table, and the module law of the action kinds ``group`` and
``dual_group``, which only they accept (docs/component-grading.md,
"What a validated group table implies").

Characters (one-dimensional representations) form a group under the
convolution product; they grade the invariant theory downstream.  The
central idempotent p attached to a character χ is recovered from the
integral by a winding endomorphism, and is checked by its defining
property h p = χ(h) p = p h before use.

Actions on a graded algebra come in three flavours: explicit generator
matrices per basis element, matrices for the generators of a group (the
group algebra case, extended and consistency-checked over the Cayley
graph), and a grading of the generators by a finite group (the dual group
algebra case, where basis words act diagonally).
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .exprs import FreePoly, Word, p_mul
from .linalg import Matrix, Subspace, Vec, apply_cols, eigen_images, kernel, vec_addto, vec_scale
from .ncalg import GradedAlgebra
from .scalars import Cyc, ONE, ZERO, addmul, zeta


# ---------------------------------------------------------------------------
# finite groups


class Group:
    """A finite group given by its multiplication table (validated)."""

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]]):
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate group element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("multiplication table has the wrong shape")
        if any(x < 0 or x >= n for row in self.table for x in row):
            raise ValueError("multiplication table entry out of range")
        identity = None
        for e in range(n):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        self.inverse = [-1] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == identity:
                    self.inverse[g] = h
            if self.inverse[g] < 0 or self.table[self.inverse[g]][g] != identity:
                raise ValueError(f"element {self.labels[g]} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return len(self.labels)

    def element_order(self, g: int) -> int:
        k, cur = 1, g
        while cur != self.identity:
            cur = self.table[cur][g]
            k += 1
        return k

    def closure(self, gens: Iterable[int]) -> set[int]:
        out = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            g = frontier.pop()
            for s in gens:
                t = self.table[s][g]
                if t not in out:
                    out.add(t)
                    frontier.append(t)
        return out

    def commutator_subgroup(self) -> set[int]:
        """[G, G]: the closure of the commutators a b a⁻¹ b⁻¹."""
        t, inv = self.table, self.inverse
        return self.closure({t[t[a][b]][t[inv[a]][inv[b]]]
                             for a in range(self.order) for b in range(a)})

    def extend(self, images: dict, one, mul=operator.mul) -> tuple[dict, int | None]:
        """The map m given by images on the elements s it keys, extended
        over every Cayley edge h -> s h of the subgroup they generate as
        m(e) = one and m(s h) = mul(m(s), m(h)).  Returns the map and the
        first element two routes reach with different values, or None
        when every edge agrees, which makes m a homomorphism."""
        values = {self.identity: one}
        frontier = [self.identity]
        while frontier:
            h = frontier.pop()
            for s, image in images.items():
                t = self.table[s][h]
                val = mul(image, values[h])
                got = values.get(t)
                if got is None:
                    values[t] = val
                    frontier.append(t)
                elif got != val:
                    return values, t
        return values, None

    @staticmethod
    def cyclic(n: int, prefix: str = "g") -> "Group":
        labels = ["e"] + [f"{prefix}{k}" if k > 1 else prefix for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return Group(labels, table)


# ---------------------------------------------------------------------------
# Hopf algebras by structure constants


class HopfAlgebra:
    def __init__(
        self,
        labels: Sequence[str],
        unit: Vec,
        mult: Sequence[Sequence[Vec]],
        comult: Sequence[Sequence[tuple[int, int, Cyc]]],
        counit: Sequence[Cyc],
        antipode: Sequence[Vec],
    ):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.unit = dict(unit)
        self.mult = [[dict(v) for v in row] for row in mult]
        self.comult = [list(t) for t in comult]
        self.counit = list(counit)
        self.antipode = [dict(v) for v in antipode]
        # Δ of each basis element as a tensor {(j, k): c}; a row of
        # ``comult`` may repeat a pair
        self._delta: list[dict[tuple[int, int], Cyc]] = []
        for row in self.comult:
            tensor: dict[tuple[int, int], Cyc] = {}
            for j, k, c in row:
                vec_addto(tensor, {(j, k): c})
            self._delta.append(tensor)
        self._integral: Vec | None = None
        self._generators: list[int] | None = None

    # -- operations on coordinate vectors --------------------------------

    def mul_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            row = self.mult[i]
            for j, b in v.items():
                vec_addto(out, row[j], a * b)
        return out

    def comult_vec(self, u: Vec) -> dict[tuple[int, int], Cyc]:
        out: dict[tuple[int, int], Cyc] = {}
        for i, a in u.items():
            vec_addto(out, self._delta[i], a)
        return out

    def counit_vec(self, u: Vec) -> Cyc:
        acc = None
        for i, a in u.items():
            e = self.counit[i]
            if e:
                acc = addmul(acc, a, e)
        return ZERO if acc is None else acc

    def basis_vec(self, i: int) -> Vec:
        return {i: ONE}

    def tensor_mul(self, s: dict, t: dict) -> dict:
        out: dict[tuple[int, int], Cyc] = {}
        for (a, b), x in s.items():
            for (c, d), y in t.items():
                xy, right = x * y, self.mult[b][d]
                for p, xp in self.mult[a][c].items():
                    xy_p = xp * xy
                    for q, xq in right.items():
                        key = (p, q)
                        new = addmul(out.get(key), xq, xy_p)
                        if new is None:
                            del out[key]
                        else:
                            out[key] = new
        return out

    # -- verification ------------------------------------------------------

    def verify(self) -> list[str]:
        """Check every Hopf axiom; returns failure witnesses.

        Associativity runs over the triples (x, s, y) with s in
        ``generators()`` (Light's test), and the multiplicativity of Δ and
        ε over the pairs (x, s).  Given the unit law, the middle factors
        that pass form a subalgebra, and given associativity too, so do
        the right factors; so S decides both for H
        (docs/component-grading.md).

        ``analyze`` and ``validate`` call it on every H.  ``GroupAlgebra``
        and ``DualGroupAlgebra`` override it: a validated group table makes
        them Hopf algebras by construction, and the tests call this body
        on them, as ``HopfAlgebra.verify(h)``, as the oracle of that."""
        bad: list[str] = []
        rng = range(self.dim)
        lab = self.labels
        gens = self.generators()

        for i in rng:
            if self.mul_vec(self.unit, self.basis_vec(i)) != self.basis_vec(i):
                bad.append(f"unit: 1*{lab[i]} != {lab[i]}")
            if self.mul_vec(self.basis_vec(i), self.unit) != self.basis_vec(i):
                bad.append(f"unit: {lab[i]}*1 != {lab[i]}")

        for i in rng:
            for s in gens:
                for k in rng:
                    lhs = self.mul_vec(self.mult[i][s], self.basis_vec(k))
                    rhs = self.mul_vec(self.basis_vec(i), self.mult[s][k])
                    if lhs != rhs:
                        bad.append(f"associativity: ({lab[i]}*{lab[s]})*{lab[k]}")

        for i in rng:
            left: dict[tuple[int, int, int], Cyc] = {}
            right: dict[tuple[int, int, int], Cyc] = {}
            for (j, k), c in self._delta[i].items():
                vec_addto(left, {(a, b, k): d for (a, b), d in self._delta[j].items()}, c)
                vec_addto(right, {(j, a, b): d for (a, b), d in self._delta[k].items()}, c)
            if left != right:
                bad.append(f"coassociativity: {lab[i]}")

        for i in rng:
            lvec: Vec = {}
            rvec: Vec = {}
            for j, k, c in self.comult[i]:
                vec_addto(lvec, self.basis_vec(k), c * self.counit[j])
                vec_addto(rvec, self.basis_vec(j), c * self.counit[k])
            if lvec != self.basis_vec(i) or rvec != self.basis_vec(i):
                bad.append(f"counit: {lab[i]}")

        unit_tensor = {}
        for i, a in self.unit.items():
            for j, b in self.unit.items():
                unit_tensor[(i, j)] = a * b
        if self.comult_vec(self.unit) != unit_tensor:
            bad.append("comultiplication: unit is not grouplike")
        if self.counit_vec(self.unit) != ONE:
            bad.append("counit: counit(1) != 1")

        for i in rng:
            for s in gens:
                got = self.comult_vec(self.mult[i][s])
                want = self.tensor_mul(self._delta[i], self._delta[s])
                if got != want:
                    bad.append(f"comultiplication is not multiplicative: {lab[i]}*{lab[s]}")
                eps = self.counit_vec(self.mult[i][s])
                if eps != self.counit[i] * self.counit[s]:
                    bad.append(f"counit is not multiplicative: {lab[i]}*{lab[s]}")

        for i in rng:
            left_vec: Vec = {}
            right_vec: Vec = {}
            for j, k, c in self.comult[i]:
                vec_addto(left_vec, self.mul_vec(self.antipode[j], self.basis_vec(k)), c)
                vec_addto(right_vec, self.mul_vec(self.basis_vec(j), self.antipode[k]), c)
            want = vec_scale(self.unit, self.counit[i])
            if left_vec != want:
                bad.append(f"antipode (left): {lab[i]}")
            if right_vec != want:
                bad.append(f"antipode (right): {lab[i]}")

        return bad

    def generators(self) -> list[int]:
        """Basis indices S such that the unit and the right-normed products
        s_1(s_2(...(s_k u))), with u the unit or an element of S, span H.
        Greedy in basis order: the next index outside the span so far
        joins S.  [] when the unit spans H."""
        if self._generators is not None:
            return list(self._generators)
        gens: list[int] = []
        span, spanned = Subspace(self.dim), []
        todo = [dict(self.unit)]
        while True:
            while todo:
                v = todo.pop()
                # one at a time: only a vector that raises the rank is spanned
                if span.add(v):
                    spanned.append(v)
                    todo.extend(self.mul_vec(self.basis_vec(s), v) for s in gens)
            if span.dim == self.dim:
                break
            s = next(i for i in range(self.dim) if not span.contains(self.basis_vec(i)))
            gens.append(s)
            todo = [self.basis_vec(s)] + [self.mul_vec(self.basis_vec(s), v) for v in spanned]
        self._generators = gens
        return list(gens)

    # -- integral -----------------------------------------------------------

    def integral(self) -> Vec:
        """The two-sided integral normalised by counit(Λ) = 1, read off the
        kernel of the stacked columns of L_s − ε(s) with s in
        ``generators()``: the h with hΛ = ε(h)Λ, or Λh = ε(h)Λ, form a
        subalgebra.  So Λ is a left integral by construction, and only
        Λs = ε(s)Λ is checked.  hΛ = ε(h)Λ for every h gives
        Λ² = ε(Λ)Λ = Λ, so idempotence needs no check."""
        if self._integral is not None:
            return dict(self._integral)
        gens = self.generators()
        found = kernel(eigen_images(self.dim, [(self.mult[s], self.counit[s]) for s in gens]))
        if not found:
            raise ValueError("no left integral found")
        lam = found[0]
        eps = self.counit_vec(lam)
        if eps.is_zero():
            raise ValueError("integral is killed by the counit (algebra not semisimple?)")
        lam = vec_scale(lam, eps.inverse())
        for s in gens:
            if self.mul_vec(lam, self.basis_vec(s)) != vec_scale(lam, self.counit[s]):
                raise ValueError("integral is not two-sided")
        self._integral = lam
        return dict(lam)

    def commutator_dim(self) -> int:
        """dim I_com, the ideal ``commutator_ideal`` builds by products."""
        return commutator_ideal(self).dim

    def closed_form_projectors(self, chars: "CharacterGroup") -> list[Vec] | None:
        """The projectors of chars read off a group table, or None where
        ``central_idempotents`` must form and check them: on every H but
        kG and k^G."""
        return None


def commutator_ideal(hopf: HopfAlgebra) -> Subspace:
    """The two-sided ideal generated by the commutators of H.  Since
    [xy, z] = x[y, z] + [x, z]y, the [s, b] with s in ``generators()`` and b
    a basis element generate it, and since S generates H, closing under
    products by S on each side closes it (docs/component-grading.md)."""
    gens = hopf.generators()
    todo = []
    for s in gens:
        for b in range(hopf.dim):
            com = dict(hopf.mult[s][b])
            vec_addto(com, hopf.mult[b][s], -ONE)
            todo.append(com)
    space = Subspace(hopf.dim)
    while todo:
        v = todo.pop()
        # one at a time: only a vector that raises the rank is closed under S
        if space.add(v):
            for s in gens:
                todo.append(hopf.mul_vec(hopf.basis_vec(s), v))
                todo.append(hopf.mul_vec(v, hopf.basis_vec(s)))
    return space


# ---------------------------------------------------------------------------
# group and dual-group Hopf algebras


class GroupAlgebra(HopfAlgebra):
    """kG of a validated group table, with Δg = g ⊗ g and ε(g) = 1.  The
    table implies the Hopf axioms, Λ = (1/|G|) Σ_g g, the projectors of
    the homomorphisms G -> k^x and dim I_com = |G| − |G/[G, G]|
    (docs/component-grading.md, "What a validated group table implies")."""

    def __init__(self, group: Group):
        n = group.order
        super().__init__(group.labels, {group.identity: ONE},
                         [[{group.table[i][j]: ONE} for j in range(n)] for i in range(n)],
                         [[(i, i, ONE)] for i in range(n)], [ONE] * n,
                         [{group.inverse[i]: ONE} for i in range(n)])
        self.group = group

    def verify(self) -> list[str]:
        """No witnesses: a validated table makes kG a Hopf algebra."""
        return []

    def integral(self) -> Vec:
        share = Cyc.rational(1, self.dim)
        return {g: share for g in range(self.dim)}

    def commutator_dim(self) -> int:
        """I_com is spanned by the g − h with g[G, G] = h[G, G]."""
        return self.dim - self.dim // len(self.group.commutator_subgroup())

    def closed_form_projectors(self, chars: "CharacterGroup") -> list[Vec] | None:
        """p_ch = (1/|G|) Σ_g ch(g⁻¹) g, the winding of Λ, when every ch
        passes ch(sh) = ch(s) ch(h) on the Cayley edges of s in
        ``generators()``, which makes ch a homomorphism, so h p = ch(h) p;
        None otherwise, and the full path refuses the one that fails."""
        table, gens, n = self.group.table, self.generators(), self.dim
        if not all(ch.values[table[s][h]] == ch.values[s] * ch.values[h]
                   for ch in chars.chars for s in gens for h in range(n)):
            return None
        share, inverse = Cyc.rational(1, n), self.group.inverse
        return [{g: share * ch.values[inverse[g]] for g in range(n)} for ch in chars.chars]


class DualGroupAlgebra(HopfAlgebra):
    """k^G of a validated group table: the point masses δ_g, with
    δ_a δ_b = [a = b] δ_a and Δδ_g = Σ_{ab = g} δ_a ⊗ δ_b.  The table
    implies the Hopf axioms, that k^G is commutative, and that its algebra
    maps are the evaluations at g, with projectors δ_g
    (docs/component-grading.md, "What a validated group table implies")."""

    def __init__(self, group: Group):
        n = group.order
        comult: list[list[tuple[int, int, Cyc]]] = [[] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                comult[group.table[a][b]].append((a, b, ONE))
        super().__init__(group.labels, {i: ONE for i in range(n)},
                         [[{i: ONE} if i == j else {} for j in range(n)] for i in range(n)],
                         comult, [ONE if i == group.identity else ZERO for i in range(n)],
                         [{group.inverse[i]: ONE} for i in range(n)])
        self.group = group

    def verify(self) -> list[str]:
        """No witnesses: a validated table makes k^G a Hopf algebra."""
        return []

    def commutator_dim(self) -> int:
        """k^G is commutative, so I_com = 0."""
        return 0

    def closed_form_projectors(self, chars: "CharacterGroup") -> list[Vec] | None:
        """δ_g for the evaluation at g; None when some value list is no
        evaluation, which the full path then refuses."""
        points = []
        for ch in chars.chars:
            hits = [h for h, x in enumerate(ch.values) if x]
            if len(hits) != 1 or ch.values[hits[0]] != ONE:
                return None
            points.append(hits[0])
        return [{g: ONE} for g in points]


group_algebra = GroupAlgebra
dual_group_algebra = DualGroupAlgebra


# ---------------------------------------------------------------------------
# characters


class Character:
    """An algebra map H -> k, stored by its values on the basis."""

    __slots__ = ("hopf", "values", "label")

    def __init__(self, hopf: HopfAlgebra, values: Sequence[Cyc], label: str = ""):
        self.hopf = hopf
        self.values = list(values)
        self.label = label

    def __call__(self, v) -> Cyc:
        if isinstance(v, int):
            return self.values[v]
        acc = None
        for i, c in v.items():
            x = self.values[i]
            if x:
                acc = addmul(acc, c, x)
        return ZERO if acc is None else acc

    def is_algebra_map(self) -> bool:
        h = self.hopf
        if self(h.unit) != ONE:
            return False
        for i in range(h.dim):
            for j in range(h.dim):
                if self(h.mult[i][j]) != self.values[i] * self.values[j]:
                    return False
        return True

    def convolve(self, other: "Character") -> "Character":
        h = self.hopf
        vals = [ZERO] * h.dim
        for i in range(h.dim):
            for j, k, c in h.comult[i]:
                if not self.values[j].is_zero():  # most terms on k^G
                    vals[i] = vals[i] + c * self.values[j] * other.values[k]
        return Character(h, vals)

    def inverse(self) -> "Character":
        h = self.hopf
        return Character(h, [self(h.antipode[i]) for i in range(h.dim)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"Character({self.label or self.values})"


class CharacterGroup:
    """The group of algebra characters of H under convolution.  An algebra
    map is fixed by its values on S = ``hopf.generators()``, so a character
    is looked up by those values and the match confirmed on every basis
    element, which keeps the closure check exact on an unverified H
    (docs/component-grading.md, "The character group").  Without the
    ``table`` that a group gives, every product is convolved and the
    characters are checked to be distinct; with it they are distinct by
    construction (``dual_group_characters``, ``group_linear_characters``)."""

    def __init__(self, hopf: HopfAlgebra, chars: Sequence[Character],
                 table: list[list[int]] | None = None):
        self.hopf = hopf
        self._gens = hopf.generators()
        self.chars: list[Character] = []
        for ch in chars:
            if table is None and self._find(ch) is not None:
                raise ValueError("duplicate characters")
            self.chars.append(ch)
        if table is None:
            table = [[self._find(a.convolve(b)) for b in self.chars] for a in self.chars]
        for a, row in zip(self.chars, table):
            if None in row:
                raise ValueError(f"characters are not closed under convolution: "
                                 f"{a.label} * {self.chars[row.index(None)].label}")
        # Group refuses a table without an identity or inverses
        self.group = Group([ch.label for ch in self.chars], table)

    def __len__(self) -> int:
        return len(self.chars)

    def _find(self, ch: Character) -> int | None:
        """The index of the character equal to ch, if any: the first with
        ch's values on S, confirmed on every basis element."""
        for i, c in enumerate(self.chars):
            if all(c.values[s] == ch.values[s] for s in self._gens):
                return i if c.values == ch.values else None
        return None

    def index_of(self, ch: Character) -> int:
        got = self._find(ch)
        if got is None:
            raise ValueError("character not in group")
        return got


def dual_group_characters(hopf: DualGroupAlgebra) -> CharacterGroup:
    """For H = k^G: evaluation at g, labelled by g, in group order.  Since
    ev_g · ev_h = ev_{gh}, their table is G's own."""
    group = hopf.group
    chars = [Character(hopf, [ONE if i == g else ZERO for i in range(group.order)],
                       group.labels[g]) for g in range(group.order)]
    return CharacterGroup(hopf, chars, group.table)


def group_linear_characters(hopf: GroupAlgebra) -> CharacterGroup:
    """For H = kG: the group homomorphisms G -> k^x, built one algebra
    generator s in S = ``generators()`` at a time: each one found on the
    subgroup the generators before s generate is tried with every ord(s)-th
    root of unity at s and extended over the Cayley edges of the larger
    subgroup (``Group.extend``).  Sorted by their values on S
    (docs/component-grading.md, "The linear characters of a group").  They
    multiply pointwise, so each product is looked up by its values on S."""
    group, gens = hopf.group, hopf.generators()
    found = [((), {group.identity: ONE})]  # (values on S so far, on their subgroup)
    for s in gens:
        o = group.element_order(s)
        extended = ((on_s + (r,), group.extend(dict(zip(gens, on_s + (r,))), ONE))
                    for on_s, _ in found for r in (zeta(o, e) for e in range(o)))
        found = [(on_s, values) for on_s, (values, clash) in extended if clash is None]
    found.sort(key=lambda f: tuple(c.key() for c in f[0]))
    chars = []
    for i, (on_s, values) in enumerate(found):
        label = "triv" if all(v == ONE for v in on_s) else f"chi{i}"
        chars.append(Character(hopf, [values[g] for g in range(group.order)], label))
    on_gens = [on_s for on_s, _ in found]
    table = [[on_gens.index(tuple(x * y for x, y in zip(a, b))) for b in on_gens]
             for a in on_gens]
    return CharacterGroup(hopf, chars, table)


# ---------------------------------------------------------------------------
# winding endomorphisms and central idempotents


def winding_right_cols(hopf: HopfAlgebra, ch: Character) -> list[Vec]:
    """Columns of h -> sum h_(1) ch(h_(2))."""
    cols = []
    for i in range(hopf.dim):
        out: Vec = {}
        for j, k, c in hopf.comult[i]:
            vec_addto(out, {j: ONE}, c * ch.values[k])
        cols.append(out)
    return cols


def winding_left_cols(hopf: HopfAlgebra, ch: Character) -> list[Vec]:
    """Columns of h -> sum ch(h_(1)) h_(2)."""
    cols = []
    for i in range(hopf.dim):
        out: Vec = {}
        for j, k, c in hopf.comult[i]:
            vec_addto(out, {k: ONE}, c * ch.values[j])
        cols.append(out)
    return cols


def central_idempotents(hopf: HopfAlgebra, chars: CharacterGroup) -> list[Vec]:
    """p_ch = winding of the integral by ch^{-1}, checked by its defining
    property h p = ch(h) p = p h for h in ``generators()``, which gives it
    for every h.  Then ch'(p_ch) = δ, p_ch is a central idempotent, the
    projectors are orthogonal, and dim H of them sum to 1
    (docs/component-grading.md, "What `central_idempotents` checks").
    On kG and k^G the projectors are read off the table
    (``closed_form_projectors``) where every value list has the form the
    table allows; any other takes this path, which refuses it."""
    closed = hopf.closed_form_projectors(chars)
    if closed is not None:
        return closed
    lam = hopf.integral()
    gens = hopf.generators()
    out = []
    for ch in chars.chars:
        p = apply_cols(winding_right_cols(hopf, ch.inverse()), lam)
        for b in gens:
            h, want = hopf.basis_vec(b), vec_scale(p, ch.values[b])
            if hopf.mul_vec(h, p) != want or hopf.mul_vec(p, h) != want:
                raise ValueError(f"projector for {ch.label} fails "
                                 f"h p = {ch.label}(h) p = p h")
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# actions


class HopfAction:
    """An action of H on a graded algebra, specified on the generators.

    ``gen_images[h][i]`` is the image of generator x_i under the h-th basis
    element, as a coordinate vector in the slice of degree w_i.  Higher
    slices act through the comultiplication:
    h . (x_i * u) = sum (h_(1) . x_i) * (h_(2) . u),
    with the terms of Δ(h) grouped by second leg q, so that each column
    costs one product per q: the left factor l = sum c (p . x_i) over the
    terms (p, q, c) is formed once and kept.  A basis element u with
    Δ(u) = u ⊗ u, ε(u) = 1 and u . x_i = x_i for every i, facts read off
    the table and the images, acts on every slice as the identity
    without a product (docs/component-grading.md, "The action on A_d,
    one product per second leg").

    For a dual group algebra the action is the diagonal one determined by
    a G-degree for each generator, and columns are computed directly.

    The kinds ``group`` and ``dual_group`` are accepted over kG and k^G
    only, and ``group`` is the group of that H, so ``kind`` alone tells
    what the table implies about the action.
    """

    def __init__(
        self,
        hopf: HopfAlgebra,
        alg: GradedAlgebra,
        kind: str,
        gen_images: list[list[Vec]] | None = None,
        grading: list[int] | None = None,
    ):
        needs = {"group": GroupAlgebra, "dual_group": DualGroupAlgebra}.get(kind)
        if needs is not None and not isinstance(hopf, needs):
            raise ValueError(f"a {kind} action needs a {needs.__name__}")
        self.hopf = hopf
        self.alg = alg
        self.kind = kind
        self.group: Group | None = None if needs is None else hopf.group
        self.grading = grading
        if kind == "dual_group":
            if grading is None:
                raise ValueError("dual group action needs a grading")
            gen_images = [[alg.nf_word((i,)) if grading[i] == h else {} for i in range(alg.ngens)]
                          for h in range(hopf.dim)]
        if gen_images is None:
            raise ValueError("action needs generator images")
        self.gen_images = gen_images
        self._cols: dict[tuple[int, int], list[Vec]] = {}
        self._legs: dict[int, list[list[tuple[int, Vec]]]] = {}  # by _left_factors
        self._identity = self._acts_as_identity()
        self._word_gdeg: list[list[int]] = []
        self._free_cache: dict[tuple[int, Word], FreePoly] = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_matrices(hopf: HopfAlgebra, alg: GradedAlgebra, images: list[list[Vec]]) -> "HopfAction":
        if len(images) != hopf.dim or any(len(row) != alg.ngens for row in images):
            raise ValueError("generator image table has the wrong shape")
        return HopfAction(hopf, alg, "matrices", gen_images=images)

    @staticmethod
    def from_group_matrices(
        hopf: GroupAlgebra,
        alg: GradedAlgebra,
        assigned: dict[int, Matrix],
    ) -> "HopfAction":
        """Extend matrices given on generators of hopf's group over the
        Cayley graph (``Group.extend``), failing loudly if two products
        disagree."""
        group = hopf.group
        for g, m in assigned.items():
            if m.nrows != alg.ngens or m.ncols != alg.ngens:
                raise ValueError(f"matrix for {group.labels[g]} has the wrong shape")
            for i in range(alg.ngens):
                for j in range(alg.ngens):
                    if alg.weights[i] != alg.weights[j] and not m.rows[i][j].is_zero():
                        raise ValueError("action matrix mixes generator degrees")
        if group.closure(assigned.keys()) != set(range(group.order)):
            raise ValueError("assigned matrices do not generate the group")
        mats, clash = group.extend(assigned, Matrix.identity(alg.ngens), operator.matmul)
        if clash is not None:
            raise ValueError(f"inconsistent action: two routes to {group.labels[clash]} disagree")
        letters = [alg.nf_word((i,)) for i in range(alg.ngens)]
        images = []
        for g in range(group.order):
            row = []
            for j in range(alg.ngens):
                out: Vec = {}
                for i in range(alg.ngens):
                    vec_addto(out, letters[i], mats[g].rows[i][j])
                row.append(out)
            images.append(row)
        return HopfAction(hopf, alg, "group", gen_images=images)

    @staticmethod
    def from_grading(hopf: DualGroupAlgebra, alg: GradedAlgebra, grading: list[int]) -> "HopfAction":
        if len(grading) != alg.ngens:
            raise ValueError("grading must assign a group element to every generator")
        return HopfAction(hopf, alg, "dual_group", grading=grading)

    # -- the action ------------------------------------------------------------

    def word_gdeg(self, degree: int) -> list[int]:
        """G-degree of every basis word (dual group actions only)."""
        if self.kind != "dual_group":
            raise ValueError("word G-degrees only exist for dual group actions")
        while len(self._word_gdeg) <= degree:
            d = len(self._word_gdeg)
            table = self.group.table
            out = []
            for w in self.alg.basis_words(d):
                g = self.group.identity
                for letter in w:
                    g = table[g][self.grading[letter]]
                out.append(g)
            self._word_gdeg.append(out)
        return self._word_gdeg[degree]

    def _acts_as_identity(self) -> set[int]:
        """The basis elements u with Δ(u) = u ⊗ u, ε(u) = 1 and u·x_i = x_i
        for every i, read off the table and the images: u acts on every
        slice as the identity (docs/component-grading.md, "The action on
        A_d, one product per second leg")."""
        hopf, alg = self.hopf, self.alg
        letters = [alg.nf_word((i,)) for i in range(alg.ngens)]
        return {u for u in range(hopf.dim)
                if hopf._delta[u] == {(u, u): ONE} and hopf.counit[u] == ONE
                and self.gen_images[u] == letters}

    def _left_factors(self, h: int) -> list[list[tuple[int, Vec]]]:
        """For each generator x_i, Δ(h)'s terms grouped by second leg q, in
        order of first appearance, each as (q, Σ_p c·(p·x_i)); a sum that
        cancels to 0 is dropped."""
        got = self._legs.get(h)
        if got is None:
            got = self._legs[h] = []
            for i in range(self.alg.ngens):
                by_leg: dict[int, Vec] = {}
                for p, q, c in self.hopf.comult[h]:
                    vec_addto(by_leg.setdefault(q, {}), self.gen_images[p][i], c)
                got.append([(q, left) for q, left in by_leg.items() if left])
        return got

    def columns(self, h: int, degree: int) -> list[Vec]:
        """Columns of the action of basis element h on the degree-d slice."""
        key = (h, degree)
        got = self._cols.get(key)
        if got is not None:
            return got
        if self.kind == "dual_group":
            gdeg = self.word_gdeg(degree)
            cols = [{k: ONE} if gdeg[k] == h else {} for k in range(self.alg.dim(degree))]
        elif h in self._identity:
            cols = [{k: ONE} for k in range(self.alg.dim(degree))]
        elif degree == 0:
            cols = [{0: self.hopf.counit[h]} if not self.hopf.counit[h].is_zero() else {}]
        else:
            alg = self.alg
            legs = self._left_factors(h)
            cols = []
            for w in alg.basis_words(degree):
                i = w[0]
                rest = w[1:]
                rest_deg = degree - alg.weights[i]
                rest_idx = alg.word_index(rest_deg, rest)
                out: Vec = {}
                for q, left in legs[i]:
                    right = self.columns(q, rest_deg)[rest_idx]
                    if right:
                        vec_addto(out, alg.mul(left, alg.weights[i], right, rest_deg))
                cols.append(out)
        self._cols[key] = cols
        return cols

    def act(self, h, vec: Vec, degree: int) -> Vec:
        """Apply h (a basis index or a coordinate vector on H) to vec."""
        if isinstance(h, int):
            return apply_cols(self.columns(h, degree), vec)
        out: Vec = {}
        for i, c in h.items():
            vec_addto(out, apply_cols(self.columns(i, degree), vec), c)
        return out

    # -- action on the free algebra ---------------------------------------------

    def gen_image_free(self, h: int, i: int) -> FreePoly:
        """Image of generator x_i under basis element h, as a free polynomial."""
        vec = self.gen_images[h][i]
        words = self.alg.basis_words(self.alg.weights[i])
        return {words[k]: c for k, c in vec.items()}

    def act_free_word(self, h: int, word: Word) -> FreePoly:
        key = (h, word)
        got = self._free_cache.get(key)
        if got is not None:
            return got
        if not word:
            c = self.hopf.counit[h]
            out: FreePoly = {} if c.is_zero() else {(): c}
        else:
            i = word[0]
            out = {}
            for p, q, c in self.hopf.comult[h]:
                left = self.gen_image_free(p, i)
                if not left:
                    continue
                right = self.act_free_word(q, word[1:])
                if not right:
                    continue
                vec_addto(out, p_mul(left, right), c)
        self._free_cache[key] = out
        return out

    def act_free(self, h: int, poly: FreePoly) -> FreePoly:
        out: FreePoly = {}
        for w, c in poly.items():
            vec_addto(out, self.act_free_word(h, w), c)
        return out

    # -- verification -------------------------------------------------------------

    def verify(self) -> list[str]:
        """Check the module-algebra laws on generators and relations, the
        module law (ab)·x_j = a·(b·x_j) for b in ``hopf.generators()``: on
        a verified H, which every caller checks first, that decides it
        (docs/component-grading.md, "The module law holds at S").  The
        kinds that only kG and k^G accept keep the module law by
        construction, so there only the unit and the relations are
        checked: a dual-group action has (δ_a δ_b)·x_j = [a = b][a = g_j] x_j
        = δ_a·(δ_b·x_j), and ``from_group_matrices`` compared M_sh with
        M_s M_h on every Cayley edge, so g -> M_g is a homomorphism
        (docs/component-grading.md, "What a validated group table
        implies")."""
        bad: list[str] = []
        alg, hopf = self.alg, self.hopf
        lab = hopf.labels
        gens = [] if self.kind in ("group", "dual_group") else hopf.generators()
        for j in range(alg.ngens):
            w = alg.weights[j]
            xj = alg.nf_word((j,))
            if self.act(hopf.unit, xj, w) != xj:
                bad.append(f"unit does not act as identity on {alg.gen_names[j]}")
            for a in range(hopf.dim):
                for b in gens:
                    via_product = self.act(hopf.mult[a][b], xj, w)
                    nested = self.act(a, self.act(b, xj, w), w)
                    if via_product != nested:
                        bad.append(
                            f"action is not an H-module: ({lab[a]}*{lab[b]})"
                            f" on {alg.gen_names[j]}"
                        )
        for h in range(hopf.dim):
            for r, rel in enumerate(alg.relations):
                image = self.act_free(h, rel)
                _, vec = alg.nf(image) if image else (None, {})
                if vec:
                    bad.append(f"{lab[h]} does not preserve relation {r}")
        return bad
