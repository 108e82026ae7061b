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

Carrier coordinates are sorted by their word in descending graded-lex
order, so the echelon engine (which pivots on the smallest index) always
eliminates the largest word of a relation.  The surviving words form the
canonical monomial basis of the slice, reported in ascending order.

Elements of a slice are sparse coordinate vectors over that basis; `Elem`
bundles a vector with its degree for convenience.

On top of the slices sit the ideals generated by a list of elements
(left, right, two-sided; the covariant ideals use them too) and the slice
tests the other layers share: `monic` (the normalised generator of a
line), `cofactor` (q with m = d * q or m = q * d), `products_inside`
(U_e * V_f inside W_{e+f}) and `is_normal` (x * S_d = S_d * x in every
degree, decided in the generator degrees of S).

A relation row rho * b starts at the normal word b: a basis word is its
own unit coordinate vector, so each word of rho applies only its letters
after the first to it, not every letter of the word times b from degree 0.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .exprs import FreePoly, Word, p_degree, parse, show
from .linalg import SparseEch, Subspace, Vec, apply_cols, express, vec_addto
from .scalars import ONE, coerce


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
        self._basis: list[list[Word]] = [[()]]
        self._index: list[dict[Word, int]] = [{(): 0}]
        self._left: dict[tuple[int, int], list[Vec]] = {}
        self._right: dict[tuple[int, int], list[Vec]] = {}

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
        carrier_words: list[Word] = []
        for i, w in enumerate(self.weights):
            if w <= d:
                for u in self._basis[d - w]:
                    carrier_words.append((i,) + u)
        carrier_words.sort(reverse=True)
        cidx = {word: c for c, word in enumerate(carrier_words)}

        ech = SparseEch(len(carrier_words))
        for rel, rdeg in zip(self.relations, self.relation_degrees):
            if rdeg > d:
                continue
            for b in range(len(self._basis[d - rdeg])):
                vec: Vec = {}
                for word, coeff in rel.items():
                    i = word[0]
                    # the normal form of a basis word is the unit vector at its index
                    tail = self._left_word(word[1:], {b: ONE}, d - rdeg)
                    lower = self._basis[d - self.weights[i]]
                    vec_addto(vec, {cidx[(i,) + lower[k]]: c for k, c in tail.items()},
                              coeff)
                ech.insert(vec)

        survivors = [c for c in range(len(carrier_words)) if c not in ech.rows]
        basis = sorted(carrier_words[c] for c in survivors)
        index = {word: k for k, word in enumerate(basis)}
        self._basis.append(basis)
        self._index.append(index)

        def project(vec: Vec) -> Vec:
            return {index[carrier_words[c]]: x for c, x in vec.items()}

        for i, w in enumerate(self.weights):
            if w <= d:
                lower = self._basis[d - w]
                cols = [project(ech.reduce({cidx[(i,) + u]: ONE})) for u in lower]
                self._left[(i, d - w)] = cols

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
        return self._left[(i, degree)]

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

    def _left_word(self, word: Word, vec: Vec, degree: int) -> Vec:
        """word * vec for vec in A_degree: the letters applied right to left."""
        for letter in reversed(word):
            vec = apply_cols(self.left_letter(letter, degree), vec)
            degree += self.weights[letter]
            if not vec:
                break
        return vec

    def nf_word(self, word: Word) -> Vec:
        """Coordinates of an arbitrary free word in its slice basis."""
        return self._left_word(word, {0: ONE}, 0)

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
        """Product of degree-dv and degree-dw coordinate vectors."""
        out: Vec = {}
        words = self.basis_words(dv)
        for k, c in v.items():
            vec_addto(out, self._left_word(words[k], w, dw), c)
        return out

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
        s = Subspace(self.dim(degree))
        for k in range(self.dim(degree)):
            s.add({k: ONE})
        return s


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
# ideal slices


def _span_of(alg: GradedAlgebra, elems: Sequence[Elem], degree: int) -> Subspace:
    s = Subspace(alg.dim(degree))
    for e in elems:
        if e.degree == degree and not e.is_zero():
            s.add(e.vec)
    return s


def _images(letter, weights, spaces: list[Subspace], degree: int) -> list[Vec]:
    """The images of the bases of spaces[degree - w_i] under letter(i, -),
    one batch over every generator; each column list is fetched once."""
    out = []
    for i, w in enumerate(weights):
        if w <= degree:
            cols = letter(i, degree - w)
            out.extend(apply_cols(cols, v) for v in spaces[degree - w].basis())
    return out


def push_left(alg, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i x_i * spaces[degree - w_i].

    ``alg`` needs only ``weights`` and ``left_letter(i, degree)``, so a
    ``smash.SmashProduct`` runs the same recursion on A # H.
    """
    acc.extend(_images(alg.left_letter, alg.weights, spaces, degree))


def _push_right(alg: GradedAlgebra, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i spaces[degree - w_i] * x_i."""
    acc.extend(_images(alg.right_letter, alg.weights, spaces, degree))


def left_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the left ideal A * <gens>."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = _span_of(alg, gens, d)
        push_left(alg, out, d, acc)
        out.append(acc)
    return out


def right_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the right ideal <gens> * A."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = _span_of(alg, gens, d)
        _push_right(alg, out, d, acc)
        out.append(acc)
    return out


def two_sided_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the two-sided ideal generated by gens."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = _span_of(alg, gens, d)
        push_left(alg, out, d, acc)
        _push_right(alg, out, d, acc)
        out.append(acc)
    return out


def mul_space_elem(alg: GradedAlgebra, space: Subspace, sdeg: int, e: Elem) -> Subspace:
    """The image space * e inside degree sdeg + e.degree."""
    out = Subspace(alg.dim(sdeg + e.degree))
    for v in space.basis():
        out.add(alg.mul(v, sdeg, e.vec, e.degree))
    return out


def mul_elem_space(alg: GradedAlgebra, e: Elem, space: Subspace, sdeg: int) -> Subspace:
    """The image e * space inside degree e.degree + sdeg."""
    out = Subspace(alg.dim(e.degree + sdeg))
    for v in space.basis():
        out.add(alg.mul(e.vec, e.degree, v, sdeg))
    return out


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


def products_inside(
    alg: GradedAlgebra, U: Subspace, e: int, V: Subspace, f: int, W: Subspace
) -> bool:
    """U_e * V_f lies inside W_{e+f}; a full target holds every product."""
    if W.dim == alg.dim(e + f):
        return True
    return all(
        W.contains(alg.mul(u, e, v, f)) for u in U.basis() for v in V.basis()
    )


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
