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
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exprs import FreePoly, Word, p_degree, parse, show
from .linalg import SparseEch, Subspace, Vec, apply_cols, vec_addto
from .scalars import Cyc, ONE, coerce


class DegreeOverflow(RuntimeError):
    """A computation needed a slice beyond the configured degree bound."""

    def __init__(self, degree: int, bound: int):
        super().__init__(f"degree {degree} exceeds the configured bound {bound}")
        self.degree = degree
        self.bound = bound


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
        for rel in relations:
            if not rel:
                raise ValueError("zero relation")
            deg = p_degree(rel, self.weights)
            if deg is None or deg < 1:
                raise ValueError(f"relation is not homogeneous of positive degree: "
                                 f"{show(rel, self.gen_names)}")
            self.relations.append(dict(rel))
            self.relation_degrees.append(deg)
        self.max_degree = max_degree
        self._basis: list[list[Word]] = [[()]]
        self._index: list[dict[Word, int]] = [{(): 0}]
        self._left: dict[tuple[int, int], list[Vec]] = {}
        self._right: dict[tuple[int, int], list[Vec]] = {}
        self._free_dim: list[int] = [1]

    # -- slice construction ---------------------------------------------

    def build(self, degree: int) -> None:
        if degree > self.max_degree:
            raise DegreeOverflow(degree, self.max_degree)
        while len(self._basis) <= degree:
            self._build_next()

    def _build_next(self) -> None:
        d = len(self._basis)
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
            for b in self._basis[d - rdeg]:
                vec: Vec = {}
                for word, coeff in rel.items():
                    i = word[0]
                    tail = self.nf_word(word[1:] + b)
                    lower = self._basis[d - self.weights[i]]
                    for k, c in tail.items():
                        pos = cidx[(i,) + lower[k]]
                        cur = vec.get(pos)
                        new = coeff * c if cur is None else cur + coeff * c
                        if new.is_zero():
                            if cur is not None:
                                del vec[pos]
                        else:
                            vec[pos] = new
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

    def free_dim(self, degree: int) -> int:
        while len(self._free_dim) <= degree:
            d = len(self._free_dim)
            self._free_dim.append(
                sum(self._free_dim[d - w] for w in self.weights if w <= d)
            )
        return self._free_dim[degree]

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

    def nf_word(self, word: Word) -> Vec:
        """Coordinates of an arbitrary free word in its slice basis."""
        vec: Vec = {0: ONE}
        degree = 0
        for letter in reversed(word):
            vec = apply_cols(self.left_letter(letter, degree), vec)
            degree += self.weights[letter]
            if not vec:
                break
        return vec

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
            cur = w
            deg = dw
            for letter in reversed(words[k]):
                cur = apply_cols(self.left_letter(letter, deg), cur)
                deg += self.weights[letter]
                if not cur:
                    break
            vec_addto(out, cur, c)
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
# ideal and subalgebra slices


def _span_of(alg: GradedAlgebra, elems: Sequence[Elem], degree: int) -> Subspace:
    s = Subspace(alg.dim(degree))
    for e in elems:
        if e.degree == degree and not e.is_zero():
            s.add(e.vec)
    return s


def _push_left(alg: GradedAlgebra, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i x_i * spaces[degree - w_i]."""
    for i, w in enumerate(alg.weights):
        if w <= degree:
            cols = alg.left_letter(i, degree - w)
            for v in spaces[degree - w].basis():
                acc.add(apply_cols(cols, v))


def _push_right(alg: GradedAlgebra, spaces: list[Subspace], degree: int, acc: Subspace) -> None:
    """acc += sum_i spaces[degree - w_i] * x_i."""
    for i, w in enumerate(alg.weights):
        if w <= degree:
            cols = alg.right_letter(i, degree - w)
            for v in spaces[degree - w].basis():
                acc.add(apply_cols(cols, v))


def left_ideal_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Degreewise slices of the left ideal A * <gens>."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = _span_of(alg, gens, d)
        _push_left(alg, out, d, acc)
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
        _push_left(alg, out, d, acc)
        _push_right(alg, out, d, acc)
        out.append(acc)
    return out


def subalgebra_slices(alg: GradedAlgebra, gens: Sequence[Elem], max_degree: int) -> list[Subspace]:
    """Slices of the unital subalgebra generated by gens (degree 0 is k)."""
    out = [alg.slice_space(0)]
    for d in range(1, max_degree + 1):
        acc = _span_of(alg, gens, d)
        for g in gens:
            if 0 < g.degree <= d and not g.is_zero():
                for v in out[d - g.degree].basis():
                    acc.add(alg.mul(v, d - g.degree, g.vec, g.degree))
        out.append(acc)
    return out


def augmentation_module_slices(
    alg: GradedAlgebra, sub_slices: Sequence[Subspace], max_degree: int
) -> list[Subspace]:
    """Slices of A * S_{>=1} for a graded subspace S closed enough to make
    the recursion valid (S a subalgebra slice list indexed by degree)."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace(alg.dim(d))
        if d >= 1 and d < len(sub_slices):
            for v in sub_slices[d].basis():
                acc.add(v)
        _push_left(alg, out, d, acc)
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
