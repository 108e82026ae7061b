"""Graded algebras presented by generators and homogeneous relations.

An algebra is built degree by degree.  Writing V_i for the span of the
i-th generator and A_e for the already-built slice of degree e, the slice
of degree d is the cokernel of the relation span inside the carrier

    C_d = ⊕_i  V_i ⊗ A_{d - w_i},

where w_i is the generator weight: every element of degree d > 0 is a sum
x_i * (lower), and the kernel of C_d -> A_d is spanned by the images of
rho * b over relations rho and normal words b of degree d - deg(rho).
(That span is exactly the degree-d slice of the two-sided ideal once the
lower slices are exact, so no Groebner-basis completion is needed — each
degree is an honest finite-dimensional elimination.)

One routine builds every such graded quotient.  `QuotientModule` keeps a
left submodule A·G of A^n by its quotient M = A^n / A·G: M_d is the
carrier ⊕_i x_i ⊗ M_{d - w_i} modulo the relation rows rho * m, over m in
a basis of M_{d - deg(rho)}, and the images of G_d, so its work follows
dim M_d, not n * dim A_d.  A is the case n = 1, G = 0: a `GradedAlgebra`
holds the module A^1 / A·0 and reads its slice bases and left letter maps
off it.  The smash layer keeps the pertinency ideal and the dual-group
radical by such modules (docs/radical-spanning.md).  The dual-group
module is given a G-grading of its copies (`CopyGrading`) in place of
generators: A·A_g in copy g is the whole G-degree-g block modulo the
relations, so that block gets no carrier column and no relation row.

Carrier columns run in descending order of their labels (copy, word), so
the echelon engine (which pivots on the smallest index) always eliminates
the largest word of a relation.  The surviving columns, in ascending
label order, are the basis of M_d; for A, the monomial basis of the slice
in ascending graded-lex order.  A relation row starts at the column
X_last[m] of the last letter of each word and is added into in one pass.

Elements of a slice are sparse coordinate vectors over that basis; `Elem`
bundles a vector with its degree for convenience.  `mul(v, dv, w, dw)`
lets the basis words of one factor act on the other letter by letter:
those of v through the left letter maps when len(v) * dv <= len(w) * dw,
else those of w through the cached right letter maps, so a dense factor
against a short one costs the short one's letters.  The product is one
vector either way.

On top of the slices sit the ideals generated by a list of elements
(left, right, two-sided; the covariant ideals use them too), which write
a slice down as the whole of A_d once the slices one letter below are
whole, and the slice tests the other layers share: `monic` (the
normalised generator of a line), `cofactor` (q with m = d * q or
m = q * d, an exact solve) and `is_normal` (x * S_d = S_d * x in every
degree, decided in the generator degrees of S).
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .exprs import FreePoly, Word, p_degree, parse, show
from .linalg import SparseEch, Subspace, Vec, apply_cols, express, vec_addto
from .scalars import ONE, addmul, coerce

T = TypeVar("T")


class DegreeOverflow(RuntimeError):
    """A computation needed a slice beyond the configured degree bound."""

    def __init__(self, degree: int, bound: int):
        super().__init__(f"degree {degree} exceeds the configured bound {bound}")
        self.degree = degree
        self.bound = bound


class RelationAboveBound(ValueError):
    """A relation whose degree exceeds the degree bound: no slice holds it."""

    def __init__(self, index: int, relation: str, degree: int, bound: int):
        super().__init__(f"relation {index} ({relation}): "
                         f"degree {degree} exceeds the degree bound {bound}")
        self.index = index
        self.degree = degree
        self.bound = bound


# the carrier of a slice is allocated as one word list; 40 free degree-one
# generators would need 40^6 words in degree 6.  The shipped presets need
# at most 900 words, at degree bound 24.
MAX_CARRIER = 50_000


class CarrierTooLarge(ValueError):
    """A slice whose carrier would hold more than MAX_CARRIER words."""

    def __init__(self, degree: int, size: int):
        super().__init__(f"degree {degree} needs a carrier of {size} words, "
                         f"above the maximum {MAX_CARRIER}")
        self.degree = degree
        self.size = size


# eliminating a slice costs about the square of its carrier, so the work of
# building A up to degree d is bounded through the running sum of the
# squared carrier sizes.  Six commuting variables reach 9.3e7 through
# degree 9 and 2.4e8 through degree 10; e22 reaches 3.1e7 at degree bound
# 36 and 1.27e8 at 48, and every other shipped preset 3.7e6 at 36.
MAX_WORK = 200_000_000


class WorkTooLarge(CarrierTooLarge):
    """A slice that would take the running sum of the squared carrier
    sizes past MAX_WORK."""

    def __init__(self, degree: int, size: int, work: int):
        ValueError.__init__(
            self, f"degree {degree} would bring the elimination work to {work} "
                  f"(the sum of the squared carrier sizes), above the maximum {MAX_WORK}")
        self.degree = degree
        self.size = size
        self.work = work


class GradedAlgebra:
    def __init__(
        self,
        gen_names: Sequence[str],
        relations: Iterable[FreePoly],
        weights: Sequence[int] | None = None,
        max_degree: int = 12,
    ):
        self.gen_names = list(gen_names)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("duplicate generator names")
        self.weights = list(weights) if weights is not None else [1] * len(self.gen_names)
        if len(self.weights) != len(self.gen_names) or any(w < 1 for w in self.weights):
            raise ValueError("each generator needs a positive integer weight")
        self.relations: list[FreePoly] = []
        self.relation_degrees: list[int] = []
        for i, rel in enumerate(relations):
            if not rel:
                raise ValueError("zero relation")
            deg = p_degree(rel, self.weights)
            if deg is None or deg < 1:
                raise ValueError(f"relation is not homogeneous of positive degree: "
                                 f"{show(rel, self.gen_names)}")
            if deg > max_degree:
                raise RelationAboveBound(i, show(rel, self.gen_names), deg, max_degree)
            self.relations.append(dict(rel))
            self.relation_degrees.append(deg)
        self.max_degree = max_degree
        self._basis: list[list[Word]] = []
        self._index: list[dict[Word, int]] = []
        self._right: dict[tuple[int, int], list[Vec]] = {}
        self._work = 0  # the sum of the squared carrier sizes of the built slices
        self._derived: dict[Hashable, object] = {}
        # A = A^1 / A·0: its slices and left letter maps are the module's.
        # The module sees A through a weak proxy, so that no reference
        # cycle keeps a dropped algebra alive until the next collection.
        self._module = QuotientModule(weakref.proxy(self), 1, ())

    # -- slice construction ---------------------------------------------

    def build(self, degree: int) -> None:
        if degree > self.max_degree:
            raise DegreeOverflow(degree, self.max_degree)
        while len(self._basis) <= degree:
            self._build_next()

    def _build_next(self) -> None:
        d = len(self._basis)
        size = sum(len(self._basis[d - w]) for w in self.weights if w <= d)
        if size > MAX_CARRIER:
            raise CarrierTooLarge(d, size)
        work = self._work + size * size
        if work > MAX_WORK:
            raise WorkTooLarge(d, size, work)
        self._work = work
        self._module._build(d, ())
        basis = [word for _, word in self._module._labels[d]]
        self._basis.append(basis)
        self._index.append({word: k for k, word in enumerate(basis)})

    # -- basic queries -----------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def dim(self, degree: int) -> int:
        self.build(degree)
        return len(self._basis[degree])

    def basis_words(self, degree: int) -> list[Word]:
        self.build(degree)
        return list(self._basis[degree])

    def word_index(self, degree: int, word: Word) -> int:
        self.build(degree)
        return self._index[degree][word]

    def hilbert(self, degree: int) -> list[int]:
        return [self.dim(d) for d in range(degree + 1)]

    # -- multiplication ---------------------------------------------------

    def left_letter(self, i: int, degree: int) -> list[Vec]:
        """Columns of x_i * (-) : A_degree -> A_{degree + w_i}."""
        self.build(degree + self.weights[i])
        return self._module.letter(i, degree)

    def right_letter(self, i: int, degree: int) -> list[Vec]:
        """Columns of (-) * x_i : A_degree -> A_{degree + w_i}."""
        key = (i, degree)
        got = self._right.get(key)
        if got is not None:
            return got
        self.build(degree + self.weights[i])
        if degree == 0:
            cols = [self.nf_word((i,))]
        else:
            cols = []
            for u in self._basis[degree]:
                j = u[0]
                rest = self._index[degree - self.weights[j]][u[1:]]
                partial = self.right_letter(i, degree - self.weights[j])[rest]
                out: Vec = {}
                left = self.left_letter(j, degree - self.weights[j] + self.weights[i])
                for k, c in partial.items():
                    vec_addto(out, left[k], c)
                cols.append(out)
        self._right[key] = cols
        return cols

    def _right_word(self, word: Word, vec: Vec, degree: int) -> Vec:
        """vec * word for vec in A_degree: the letters applied left to right."""
        for letter in word:
            vec = apply_cols(self.right_letter(letter, degree), vec)
            degree += self.weights[letter]
            if not vec:
                break
        return vec

    def nf_word(self, word: Word) -> Vec:
        """Coordinates of an arbitrary free word in its slice basis."""
        return self._module.act(word, {0: ONE}, 0)

    def nf(self, poly: FreePoly, degree: int | None = None) -> tuple[int | None, Vec]:
        """Normal form of a homogeneous free polynomial: (degree, vector)."""
        if not poly:
            return degree, {}
        deg = p_degree(poly, self.weights)
        if deg is None:
            raise ValueError("polynomial is not homogeneous")
        if degree is not None and degree != deg:
            raise ValueError(f"expected degree {degree}, got {deg}")
        out: Vec = {}
        for word, coeff in poly.items():
            vec_addto(out, self.nf_word(word), coeff)
        return deg, out

    def mul(self, v: Vec, dv: int, w: Vec, dw: int) -> Vec:
        """Product of degree-dv and degree-dw coordinate vectors.  The words
        of the side with fewer letters in all, about len(v) * dv against
        len(w) * dw, act on the other side letter by letter.  A product
        past the degree bound raises DegreeOverflow with its own degree
        dv + dw before anything is built."""
        if dv + dw > self.max_degree:
            raise DegreeOverflow(dv + dw, self.max_degree)
        out: Vec = {}
        if len(v) * dv <= len(w) * dw:
            self.build(dv)
            words = self._basis[dv]
            for k, c in v.items():
                vec_addto(out, self._module.act(words[k], w, dw), c)
        else:
            self.build(dw)
            words = self._basis[dw]
            for k, c in w.items():
                vec_addto(out, self._right_word(words[k], v, dv), c)
        return out

    def derived(self, key: Hashable, make: Callable[[], T]) -> T:
        """The table ``make()`` derives from A, formed on the first call
        with this key: the key names the table and what else it reads."""
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    # -- elements -----------------------------------------------------------

    def element(self, source, degree: int | None = None) -> "Elem":
        if isinstance(source, str):
            source = parse(source, self.gen_names)
        deg, vec = self.nf(source, degree)
        if deg is None:
            if degree is None:
                raise ValueError("zero element needs an explicit degree")
            deg = degree
        return Elem(self, deg, vec)

    def show_vec(self, vec: Vec, degree: int) -> str:
        words = self.basis_words(degree)
        return show({words[k]: c for k, c in vec.items()}, self.gen_names)

    def slice_space(self, degree: int) -> Subspace:
        """The whole of A_degree."""
        dim = self.dim(degree)
        return Subspace.echelon(dim, [{k: ONE} for k in range(dim)])


class Elem:
    """A homogeneous element: its degree and its slice coordinates."""

    __slots__ = ("alg", "degree", "vec")

    def __init__(self, alg: GradedAlgebra, degree: int, vec: Vec):
        self.alg = alg
        self.degree = degree
        self.vec = vec

    def is_zero(self) -> bool:
        return not self.vec

    def __mul__(self, other: "Elem") -> "Elem":
        return Elem(
            self.alg,
            self.degree + other.degree,
            self.alg.mul(self.vec, self.degree, other.vec, other.degree),
        )

    def __add__(self, other: "Elem") -> "Elem":
        if other.degree != self.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add elements of different degrees")
        out = dict(self.vec)
        vec_addto(out, other.vec)
        return Elem(self.alg, self.degree if not self.is_zero() else other.degree, out)

    def __sub__(self, other: "Elem") -> "Elem":
        return self + other.scale(-1)

    def scale(self, c) -> "Elem":
        c = coerce(c)
        if c.is_zero():
            return Elem(self.alg, self.degree, {})
        return Elem(self.alg, self.degree, {k: x * c for k, x in self.vec.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Elem):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.vec == other.vec

    def __hash__(self):
        raise TypeError("elements are unhashable")

    def show(self) -> str:
        return self.alg.show_vec(self.vec, self.degree)

    def __repr__(self) -> str:
        return f"Elem({self.show()})"


# ---------------------------------------------------------------------------
# quotient modules


class CopyGrading(NamedTuple):
    """A G-grading of A and of the copies of A^n: the G-degree of each
    letter, the group table and identity, and the element killed in each
    copy h, whose whole G-degree block the module quotients out."""

    letters: Sequence[int]
    table: Sequence[Sequence[int]]
    identity: int
    killed: Sequence[int]

    def relation_degree(self, index: int, rel: FreePoly, names: Sequence[str]) -> int:
        """The G-degree of relation ``index``; ValueError when its words
        do not share one."""
        found = set()
        for word in rel:
            g = self.identity
            for letter in word:
                g = self.table[g][self.letters[letter]]
            found.add(g)
        if len(found) != 1:
            raise ValueError(f"relation {index} ({show(rel, names)}) is not G-homogeneous")
        return found.pop()


class QuotientModule:
    """The graded left A-module M = A^n / A·G, kept by its quotient.

    A vector of A^n_d has coordinates k * n + h: basis word k of A_d in
    copy h.  The d-th entry of ``gens`` spans G_d, and the module is
    built through the last one; built from no ``gens``, its owner adds
    one degree at a time (``extend``) and learns whether G_d added
    anything.  M_0 = k^n / <G_0>; for d > 0, M_d is the carrier
    ⊕_i x_i ⊗ M_{d - w_i} modulo the relation rows ρ·m, over relations ρ
    and m over a basis of M_{d - deg ρ}, and the images of G_d
    (docs/radical-spanning.md, "The pertinency ideal by its quotient
    module").  The relation rows go into the echelon first, so the images
    of G_d raise its rank exactly when G_d does not lie in the submodule
    that G below d generates.  A is built by the same code as the case
    n = 1, G = 0: its ``GradedAlgebra`` calls ``_build`` one degree at a
    time.

    With a ``grading`` (a ``CopyGrading``, and no generator vectors) the
    module is ⊕_h A/A·A_{g_h}, g_h = ``killed[h]``.  The G-degree of each
    label is kept in ``_gdegs``, alongside ``_labels``; a label of G-degree
    g_h in copy h gets no carrier column and a relation row of that
    G-degree is never formed, since the G-degree-g_h block of the carrier
    modulo the relations is the image of A_{g_h} (docs/radical-spanning.md,
    "The dual-group radical by its quotient module").  Every relation must
    be G-homogeneous; one that is not raises ValueError.

    The basis of M_d is the carrier columns off the pivots, in ascending
    order of their labels (copy, word), so for n = 1 and G = 0 it is the
    basis of A_d.  The relation row of ρ = Σ c_w w at m is
    Σ c_w x_{w_1} ⊗ X_{w_2} ... X_{w_last} m, formed from the column
    X_last[m] and added into the row in one pass.  The letter maps
    X_i: M_{d - w_i} -> M_d are read off the echelon with no reduction
    (``_project``): each stored row has 1 at its pivot and its other
    entries off the pivots, so a carrier column off the pivots is the
    basis element at its position, and a pivot column is minus the rest
    of its row.  π(u ⊗ e_h) = X_i π(u' ⊗ e_h) for u = x_i u' is formed
    only for the entries asked for (``image``), and kept.
    """

    def __init__(self, alg: GradedAlgebra, n: int, gens: Iterable[Sequence[Vec]],
                 grading: CopyGrading | None = None):
        self.alg = alg
        self.n = n
        self.grading = grading
        self.dims: list[int] = []
        self._letters: dict[tuple[int, int], list[Vec]] = {}
        self._images: dict[tuple[int, int, int], Vec] = {}
        self._labels: list[list[tuple[int, Word]]] = []
        if grading is not None:
            self._gdegs: list[list[int]] = []  # the G-degree of each label
            self._relation_gdegs = [grading.relation_degree(r, rel, alg.gen_names)
                                    for r, rel in enumerate(alg.relations)]
        for gd in gens:
            self.extend(gd)

    def extend(self, gens: Sequence[Vec]) -> bool:
        """Build the next degree d with ``gens`` spanning G_d; True when
        their images raise the rank beyond the relation rows, that is when
        G_d does not lie in the submodule that G below d generates."""
        d = len(self.dims)
        self.alg.build(d)
        return self._build(d, gens)

    def _build(self, d: int, gens: Sequence[Vec]) -> bool:
        alg, n, dims, letters, grading = self.alg, self.n, self.dims, self._letters, self.grading
        # a carrier column is labelled (copy, word) by the basis element of
        # M it came from and its letter; the columns run in descending
        # order of their labels, so that the echelon pivots on the largest
        if d == 0:
            labels = [(h, ()) for h in range(n)]
        else:
            labels, starts = [], {}
            for i, w in enumerate(alg.weights):
                if w <= d:
                    starts[i] = len(labels)
                    labels.extend((h, (i,) + word) for h, word in self._labels[d - w])
        if grading is None:
            live = range(len(labels))
        else:
            # a label of G-degree killed[h] in copy h gets no carrier column
            if d == 0:
                gdegs = [grading.identity] * n
            else:
                gdegs = []
                for i in starts:
                    row = grading.table[grading.letters[i]]
                    gdegs.extend(row[g] for g in self._gdegs[d - alg.weights[i]])
            killed = grading.killed
            live = [j for j, (h, _) in enumerate(labels) if gdegs[j] != killed[h]]
        order = sorted(live, key=labels.__getitem__, reverse=True)
        col: list[int | None] = [None] * len(labels)
        for c, j in enumerate(order):
            col[j] = c
        if d == 0:
            rows = []
            gen_rows = [{col[h]: x for h, x in g.items()} for g in gens]
            cols = {}
        else:
            # the carrier columns of x_i ⊗ M_{d - w_i}
            cols = {i: col[s:s + dims[d - alg.weights[i]]] for i, s in starts.items()}
            rows = []
            for r, (rel, rdeg) in enumerate(zip(alg.relations, alg.relation_degrees)):
                if rdeg > d:
                    continue
                e = d - rdeg
                if grading is None:
                    ms = range(dims[e])
                else:
                    # ρ·m has G-degree g_ρ·g_m; a row in a killed block is never formed
                    row_g = grading.table[self._relation_gdegs[r]]
                    ms = [m for m, ((h, _), g) in enumerate(zip(self._labels[e], self._gdegs[e]))
                          if row_g[g] != killed[h]]
                for m in ms:
                    # ρ·m = Σ c_w x_{w_1} ⊗ X_{w'} m, from the column X_last[m]
                    row: Vec = {}
                    for word, coeff in rel.items():
                        tail = {m: ONE} if len(word) == 1 else letters[(word[-1], e)][m]
                        if len(word) > 2:
                            tail = self.act(word[1:-1], tail, e + alg.weights[word[-1]])
                        _add_at(row, cols[word[0]], tail, coeff)
                    rows.append(row)
            gen_rows = []
            for g in gens:
                words, index = alg._basis[d], alg._index
                row = {}
                for key, c in g.items():
                    k, h = divmod(key, n)
                    i = words[k][0]
                    e = d - alg.weights[i]
                    _add_at(row, cols[i], self.image(e, index[e][words[k][1:]], h), c)
                gen_rows.append(row)
        # the relation rows first, so that the rank tells what G_d adds
        ech = SparseEch(len(order))
        ech.extend(rows)
        rank = ech.rank
        ech.extend(gen_rows)
        # the basis of M_d, in ascending order of its labels
        survivors = [c for c in reversed(range(len(order))) if c not in ech.rows]
        position = {c: j for j, c in enumerate(survivors)}
        if d == 0:
            for h in range(n):
                self._images[(0, 0, h)] = _project(ech, position, col[h])
        for i, cs in cols.items():
            letters[(i, d - alg.weights[i])] = [_project(ech, position, c) for c in cs]
        self._labels.append([labels[order[c]] for c in survivors])
        if grading is not None:
            self._gdegs.append([gdegs[order[c]] for c in survivors])
        dims.append(len(survivors))
        return ech.rank > rank

    def letter(self, i: int, degree: int) -> list[Vec]:
        """Columns of X_i: M_degree -> M_{degree + w_i}."""
        return self._letters[(i, degree)]

    def act(self, word: Word, vec: Vec, degree: int) -> Vec:
        """X_word vec for vec in M_degree: the letters applied right to left.
        A letter map not built yet is one of A's own, built on demand."""
        letters, weights = self._letters, self.alg.weights
        for letter in reversed(word):
            cols = letters.get((letter, degree))
            if cols is None:
                self.alg.build(degree + weights[letter])
                cols = letters[(letter, degree)]
            vec = apply_cols(cols, vec)
            degree += weights[letter]
            if not vec:
                break
        return vec

    def image(self, degree: int, k: int, h: int) -> Vec:
        """π(u ⊗ e_h) in M_degree for basis word k of A_degree, through the
        letters of u: each π on the way down is kept."""
        alg, images = self.alg, self._images
        todo = []
        while (degree, k, h) not in images:
            todo.append((degree, k))
            word = alg._basis[degree][k]
            degree -= alg.weights[word[0]]
            k = alg._index[degree][word[1:]]
        vec = images[(degree, k, h)]
        for top, k in reversed(todo):
            i = alg._basis[top][k][0]
            vec = apply_cols(self._letters[(i, top - alg.weights[i])], vec)
            images[(top, k, h)] = vec
        return vec


def _project(ech: SparseEch, position: dict[int, int], c: int | None) -> Vec:
    """The image of carrier column c in M_d, over the basis of M_d (the
    columns off the pivots, at ``position``), read off the echelon: a
    column off the pivots is its own basis element, and a pivot column is
    minus the rest of its row, which holds only columns off the pivots.
    A label with no column (c None) lies in a killed block: its image is 0."""
    row = ech.rows.get(c)
    if row is None:
        return {position[c]: ONE} if c is not None else {}
    return {position[k]: -x for k, x in row.items() if k != c}


def _add_at(acc: Vec, at: Sequence[int], vec: Vec, c) -> None:
    """acc += c * vec with entry k of vec at acc[at[k]], in one pass.  Into
    an empty acc nothing can cancel, as in ``linalg.vec_addto``."""
    if not acc:
        if c is ONE:
            acc.update(zip(map(at.__getitem__, vec), vec.values()))
        else:
            for k, x in vec.items():
                acc[at[k]] = addmul(None, x, c)
        return
    get = acc.get
    for k, x in vec.items():
        key = at[k]
        new = addmul(get(key), x, c)
        if new is None:
            del acc[key]
        else:
            acc[key] = new


# ---------------------------------------------------------------------------
# ideal slices


def _span_of(alg: GradedAlgebra, elems: Sequence[Elem], degree: int) -> Subspace:
    return Subspace.span(alg.dim(degree),
                         (e.vec for e in elems if e.degree == degree and not e.is_zero()))


def _images(letter, weights, spaces: list[Subspace], degree: int) -> list[Vec]:
    """The images of the bases of spaces[degree - w_i] under letter(i, -),
    one batch over every generator; each column list is fetched once."""
    out = []
    for i, w in enumerate(weights):
        if w <= degree:
            cols = letter(i, degree - w)
            out.extend(apply_cols(cols, v) for v in spaces[degree - w].basis())
    return out


def _push_left(alg: GradedAlgebra, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i x_i * spaces[degree - w_i]."""
    acc.extend(_images(alg.left_letter, alg.weights, spaces, degree))


def _push_right(alg: GradedAlgebra, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i spaces[degree - w_i] * x_i."""
    acc.extend(_images(alg.right_letter, alg.weights, spaces, degree))


def _ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int,
                  pushes) -> list[Subspace]:
    """Degreewise slices of the ideal gens generate under the pushes.  Once
    every out[d - w_i] is the whole slice, so is out[d], since
    A_d = sum_i x_i A_{d - w_i} = sum_i A_{d - w_i} x_i for d > 0
    (docs/component-grading.md); it is then written down, not eliminated."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        if d and all(out[d - w].dim == out[d - w].ambient for w in alg.weights if w <= d):
            out.append(alg.slice_space(d))
            continue
        acc = _span_of(alg, gens, d)
        for push in pushes:
            push(alg, out, d, acc)
        out.append(acc)
    return out


def left_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the left ideal A * <gens>."""
    return _ideal_slices(alg, gens, max_degree, (_push_left,))


def right_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the right ideal <gens> * A."""
    return _ideal_slices(alg, gens, max_degree, (_push_right,))


def two_sided_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the two-sided ideal generated by gens."""
    return _ideal_slices(alg, gens, max_degree, (_push_left, _push_right))


def mul_space_elem(alg: GradedAlgebra, space: Subspace, sdeg: int, e: Elem) -> Subspace:
    """The image space * e inside degree sdeg + e.degree."""
    return Subspace.span(alg.dim(sdeg + e.degree),
                         [alg.mul(v, sdeg, e.vec, e.degree) for v in space.basis()])


def mul_elem_space(alg: GradedAlgebra, e: Elem, space: Subspace, sdeg: int) -> Subspace:
    """The image e * space inside degree e.degree + sdeg."""
    return Subspace.span(alg.dim(e.degree + sdeg),
                         [alg.mul(e.vec, e.degree, v, sdeg) for v in space.basis()])


# ---------------------------------------------------------------------------
# slice tests shared by the invariant, structure and smash layers


def monic(alg: GradedAlgebra, degree: int, vec: Vec) -> Elem:
    """The multiple of a nonzero vec with coefficient 1 at its first basis word."""
    scale = vec[min(vec)].inverse()
    return Elem(alg, degree, {k: c * scale for k, c in vec.items()})


def cofactor(alg: GradedAlgebra, d: Elem, m: Elem, side: str) -> Elem | None:
    """q in A with m = d * q (side "left") or m = q * d (side "right");
    None when d does not divide m on that side."""
    qdeg = m.degree - d.degree
    if qdeg < 0:
        return None
    if side == "left":
        prods = [alg.mul(d.vec, d.degree, {k: ONE}, qdeg) for k in range(alg.dim(qdeg))]
    else:
        prods = [alg.mul({k: ONE}, qdeg, d.vec, d.degree) for k in range(alg.dim(qdeg))]
    coeffs = express(alg.dim(m.degree), prods, m.vec)
    if coeffs is None:
        return None
    return Elem(alg, qdeg, {k: c for k, c in enumerate(coeffs) if not c.is_zero()})


def is_normal(
    alg: GradedAlgebra, x: Elem, slices: Sequence[Subspace] | Mapping[int, Subspace],
    gen_degrees: Iterable[int], max_degree: int,
) -> bool:
    """x * S_d = S_d * x for every d with d + deg x within the bound, for a
    subalgebra S generated in gen_degrees.  S_d = sum_g S_g S_{d-g}, so the
    generator degrees decide every degree (docs/component-grading.md), and
    slices need hold S_g only for those g."""
    return all(
        mul_elem_space(alg, x, slices[g], g) == mul_space_elem(alg, slices[g], g, x)
        for g in sorted(set(gen_degrees)) if g <= max_degree - x.degree
    )
