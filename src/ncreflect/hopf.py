"""Finite-dimensional Hopf algebras, their characters, and their actions.

A Hopf algebra is stored by structure constants over a fixed basis:
multiplication and antipode as sparse vectors, comultiplication as a list
of (left, right, coefficient) triples per basis element.  ``verify``
checks every axiom and reports witnesses instead of trusting input.  The
conditions that are multiplicative in one factor (associativity, and Δ
and ε being algebra maps) are checked with that factor running over a
set of algebra generators (``HopfAlgebra.generators``), which decides
them for all of H (docs/component-grading.md, "H is checked at its
algebra generators").  So are the integral and the character projectors,
except on the kG and k^G of a validated group table, where they are read
off the table.

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

from typing import Iterable, Sequence

from .exprs import FreePoly, Word, p_mul
from .linalg import Matrix, Subspace, Vec, apply_cols, eigenvectors, vec_addto, vec_scale
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
        # the validated table of kG or k^G, set by group_algebra and
        # dual_group_algebra only: such an H is a Hopf algebra by
        # construction (docs/component-grading.md, "What a validated
        # group table implies"); ``dual`` tells k^G from kG
        self.group: Group | None = None
        self.dual = False

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

        ``analyze`` calls it on every H but kG and k^G, which it takes as
        verified by their construction from a validated group table;
        ``validate`` calls it on every H, and the tests run it on kG and
        k^G as the oracle of that skip."""
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
        common eigenvectors of the L_s − ε(s) with s in ``generators()``:
        the h with hΛ = ε(h)Λ, or Λh = ε(h)Λ, form a subalgebra.  So Λ is
        a left integral by construction, and only Λs = ε(s)Λ is checked.
        hΛ = ε(h)Λ for every h gives Λ² = ε(Λ)Λ = Λ, so idempotence needs
        no check.

        On the kG of a validated group table Λ = (1/|G|) Σ_g g, with no
        product (docs/component-grading.md, "What a validated group table
        implies")."""
        if self._integral is not None:
            return dict(self._integral)
        if self.group is not None and not self.dual:
            share = Cyc.rational(1, self.dim)
            self._integral = {g: share for g in range(self.dim)}
            return dict(self._integral)
        gens = self.generators()
        kernel = eigenvectors(self.dim, [(self.mult[s], self.counit[s]) for s in gens])
        if not kernel:
            raise ValueError("no left integral found")
        lam = kernel[0]
        eps = self.counit_vec(lam)
        if eps.is_zero():
            raise ValueError("integral is killed by the counit (algebra not semisimple?)")
        lam = vec_scale(lam, eps.inverse())
        for s in gens:
            if self.mul_vec(lam, self.basis_vec(s)) != vec_scale(lam, self.counit[s]):
                raise ValueError("integral is not two-sided")
        self._integral = lam
        return dict(lam)


# ---------------------------------------------------------------------------
# group and dual-group Hopf algebras


def group_algebra(group: Group) -> HopfAlgebra:
    n = group.order
    mult = [[{group.table[i][j]: ONE} for j in range(n)] for i in range(n)]
    comult = [[(i, i, ONE)] for i in range(n)]
    counit = [ONE] * n
    antipode = [{group.inverse[i]: ONE} for i in range(n)]
    hopf = HopfAlgebra(group.labels, {group.identity: ONE}, mult, comult, counit, antipode)
    hopf.group = group
    return hopf


def dual_group_algebra(group: Group) -> HopfAlgebra:
    n = group.order
    mult = [[{i: ONE} if i == j else {} for j in range(n)] for i in range(n)]
    comult: list[list[tuple[int, int, Cyc]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            comult[group.table[a][b]].append((a, b, ONE))
    counit = [ONE if i == group.identity else ZERO for i in range(n)]
    antipode = [{group.inverse[i]: ONE} for i in range(n)]
    unit = {i: ONE for i in range(n)}
    hopf = HopfAlgebra(group.labels, unit, mult, comult, counit, antipode)
    hopf.group = group
    hopf.dual = True
    return hopf


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
    (docs/component-grading.md, "The character group")."""

    def __init__(self, hopf: HopfAlgebra, chars: Sequence[Character]):
        self.hopf = hopf
        self._gens = hopf.generators()
        self.chars: list[Character] = []
        for ch in chars:
            if self._find(ch) is not None:
                raise ValueError("duplicate characters")
            self.chars.append(ch)
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


def dual_group_characters(hopf: HopfAlgebra, group: Group) -> CharacterGroup:
    """For H = (kG)^*: evaluation at g, labelled by g."""
    chars = []
    for g in range(group.order):
        values = [ONE if i == g else ZERO for i in range(group.order)]
        chars.append(Character(hopf, values, group.labels[g]))
    return CharacterGroup(hopf, chars)


def group_linear_characters(hopf: HopfAlgebra, group: Group) -> CharacterGroup:
    """For H = kG (``group_algebra(group)``): the group homomorphisms
    G -> k^x, built one algebra generator s in S = ``generators()`` at a
    time: each one found on the subgroup the generators before s generate
    is tried with every ord(s)-th root of unity at s and propagated over
    the Cayley edges of the larger subgroup.  Sorted by their values on S
    (docs/component-grading.md, "The linear characters of a group")."""
    gens = hopf.generators()
    found = [((), {group.identity: ONE})]  # (values on S so far, on their subgroup)
    for k, s in enumerate(gens):
        o = group.element_order(s)
        roots = [zeta(o, e) for e in range(o)]
        extended = ((on_s + (r,), _propagate(group, gens[:k + 1], on_s + (r,)))
                    for on_s, _ in found for r in roots)
        found = [(on_s, values) for on_s, values in extended if values is not None]
    found.sort(key=lambda f: tuple(c.key() for c in f[0]))
    chars = []
    for i, (_, values) in enumerate(found):
        label = "triv" if all(v == ONE for v in values.values()) else f"chi{i}"
        chars.append(Character(hopf, [values[g] for g in range(group.order)], label))
    return CharacterGroup(hopf, chars)


def _propagate(group: Group, gens: list[int], on_gens: tuple[Cyc, ...]) -> dict[int, Cyc] | None:
    """The map taking on_gens at gens, propagated over every Cayley edge
    (g, h) of the subgroup they generate; None when two routes disagree."""
    values = {group.identity: ONE}
    frontier = [group.identity]
    while frontier:
        h = frontier.pop()
        for g, on_g in zip(gens, on_gens):
            t = group.table[g][h]
            val = on_g * values[h]
            got = values.get(t)
            if got is None:
                values[t] = val
                frontier.append(t)
            elif got != val:
                return None
    return values


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

    On the k^G of a validated group table an algebra map is evaluation at
    one g, and p_ch = δ_g is returned with no product.  On the kG of one
    the winding is p_ch = (1/|G|) Σ_g ch(g⁻¹) g, and p s = ch(s) p reads
    ch(sh) = ch(s) ch(h) on the Cayley edges of s in ``generators()``,
    which make ch a homomorphism, so h p = ch(h) p too; a value list that
    passes the edges gets p_ch with no product.  Any other value list
    takes the full path, which refuses it (docs/component-grading.md,
    "What a validated group table implies")."""
    group = hopf.group
    if group is not None and hopf.dual:
        points = [_evaluation_point(ch) for ch in chars.chars]
        if None not in points:
            return [{g: ONE} for g in points]
    elif group is not None:
        gens = hopf.generators()
        if all(_is_homomorphism(group, gens, ch) for ch in chars.chars):
            share = Cyc.rational(1, group.order)
            return [{g: share * ch.values[group.inverse[g]] for g in range(group.order)}
                    for ch in chars.chars]
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


def _evaluation_point(ch: Character) -> int | None:
    """The g with ch(δ_h) = [h = g] for every h, if ch has that form."""
    hits = [h for h, x in enumerate(ch.values) if x]
    if len(hits) == 1 and ch.values[hits[0]] == ONE:
        return hits[0]
    return None


def _is_homomorphism(group: Group, gens: list[int], ch: Character) -> bool:
    """ch(sh) = ch(s) ch(h) on every Cayley edge, s in gens: the a with
    ch(ah) = ch(a) ch(h) for every h are closed under products and hold
    gens, which generate G when they generate kG."""
    values, table = ch.values, group.table
    return all(values[table[s][h]] == values[s] * values[h]
               for s in gens for h in range(group.order))


# ---------------------------------------------------------------------------
# actions


class HopfAction:
    """An action of H on a graded algebra, specified on the generators.

    ``gen_images[h][i]`` is the image of generator x_i under the h-th basis
    element, as a coordinate vector in the slice of degree w_i.  Higher
    slices act through the comultiplication:
    h . (x_i * u) = sum (h_(1) . x_i) * (h_(2) . u).

    For a dual group algebra the action is the diagonal one determined by
    a G-degree for each generator, and columns are computed directly.
    """

    def __init__(
        self,
        hopf: HopfAlgebra,
        alg: GradedAlgebra,
        kind: str,
        gen_images: list[list[Vec]] | None = None,
        group: Group | None = None,
        grading: list[int] | None = None,
    ):
        self.hopf = hopf
        self.alg = alg
        self.kind = kind
        self.group = group
        self.grading = grading
        if kind == "dual_group":
            if group is None or grading is None:
                raise ValueError("dual group action needs the group and a grading")
            gen_images = []
            for h in range(hopf.dim):
                row = []
                for i in range(alg.ngens):
                    img = alg.nf_word((i,)) if grading[i] == h else {}
                    row.append(img)
                gen_images.append(row)
        if gen_images is None:
            raise ValueError("action needs generator images")
        self.gen_images = gen_images
        self._cols: dict[tuple[int, int], list[Vec]] = {}
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
        hopf: HopfAlgebra,
        alg: GradedAlgebra,
        group: Group,
        assigned: dict[int, Matrix],
    ) -> "HopfAction":
        """Extend matrices given on group generators over the Cayley graph,
        failing loudly if two products disagree."""
        for g, m in assigned.items():
            if m.nrows != alg.ngens or m.ncols != alg.ngens:
                raise ValueError(f"matrix for {group.labels[g]} has the wrong shape")
            for i in range(alg.ngens):
                for j in range(alg.ngens):
                    if alg.weights[i] != alg.weights[j] and not m.rows[i][j].is_zero():
                        raise ValueError("action matrix mixes generator degrees")
        if group.closure(assigned.keys()) != set(range(group.order)):
            raise ValueError("assigned matrices do not generate the group")
        mats: dict[int, Matrix] = {group.identity: Matrix.identity(alg.ngens)}
        frontier = [group.identity]
        while frontier:
            h = frontier.pop()
            for s, ms in assigned.items():
                t = group.table[s][h]
                prod = ms @ mats[h]
                if t in mats:
                    if mats[t] != prod:
                        raise ValueError(
                            f"inconsistent action: two routes to {group.labels[t]} disagree"
                        )
                else:
                    mats[t] = prod
                    frontier.append(t)
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
        return HopfAction(hopf, alg, "group", gen_images=images, group=group)

    @staticmethod
    def from_grading(hopf: HopfAlgebra, alg: GradedAlgebra, group: Group, grading: list[int]) -> "HopfAction":
        if len(grading) != alg.ngens:
            raise ValueError("grading must assign a group element to every generator")
        return HopfAction(hopf, alg, "dual_group", group=group, grading=grading)

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

    def columns(self, h: int, degree: int) -> list[Vec]:
        """Columns of the action of basis element h on the degree-d slice."""
        key = (h, degree)
        got = self._cols.get(key)
        if got is not None:
            return got
        if self.kind == "dual_group":
            gdeg = self.word_gdeg(degree)
            cols = [{k: ONE} if gdeg[k] == h else {} for k in range(self.alg.dim(degree))]
        elif degree == 0:
            cols = [{0: self.hopf.counit[h]} if not self.hopf.counit[h].is_zero() else {}]
        else:
            alg = self.alg
            cols = []
            for w in alg.basis_words(degree):
                i = w[0]
                rest = w[1:]
                rest_deg = degree - alg.weights[i]
                rest_idx = alg.word_index(rest_deg, rest)
                out: Vec = {}
                for p, q, c in self.hopf.comult[h]:
                    left = self.gen_images[p][i]
                    if not left:
                        continue
                    right = self.columns(q, rest_deg)[rest_idx]
                    if not right:
                        continue
                    vec_addto(out, alg.mul(left, alg.weights[i], right, rest_deg), c)
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
        a verified H, which every caller checks first or builds from a
        validated group table, that decides it
        (docs/component-grading.md, "The module law holds at S").  A
        dual-group action of the k^G of a validated table keeps the module
        law by construction, (δ_a δ_b)·x_j = [a = b][a = g_j] x_j =
        δ_a·(δ_b·x_j), so there only the unit and the relations are checked.
        So too on the group-matrix action of the kG of that action's table:
        ``from_group_matrices`` compared M_sh with M_s M_h on every Cayley
        edge, so g -> M_g is a homomorphism (docs/component-grading.md,
        "What a validated group table implies")."""
        bad: list[str] = []
        alg, hopf = self.alg, self.hopf
        lab = hopf.labels
        derived = hopf.group is not None and (
            self.kind == "dual_group" if hopf.dual
            else self.kind == "group" and hopf.group is self.group)
        gens = [] if derived else hopf.generators()
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
