"""Exact linear algebra over cyclotomic scalars.

Vectors are ``dict[int, Cyc]`` with no zero entries.  Every loop that
adds a multiple of one vector into another (``vec_addto`` and through it
``apply_cols`` and ``Expressor``; ``SparseEch.reduce``
and the back-substitution of ``insert``; the dense ``Matrix`` products)
forms each entry as ``scalars.addmul(cur, x, c)``, which prunes an entry
that cancels by returning None.  Into an empty dict nothing can cancel,
and ``vec_addto`` copies v there when the factor is ``ONE``.
``apply_cols`` skips a zero column before the call: the letter maps of a
quotient module and the columns of the dual-group action hold many of
them.

``SparseEch`` is the one elimination engine: a row-reduced sparse span
keyed by pivot column.  Ideal slices and smash-product spans are built by
inserting thousands of mostly-sparse vectors, so the echelon is
maintained eagerly (every stored row has pivot coefficient 1 and is
reduced against every other pivot).  A reduced vector whose pivot
coefficient is already 1 is stored as it is.  Since no stored row holds
another pivot column, subtracting a multiple of one row from a vector
leaves its entries at the other pivot columns as they were: ``reduce``
clears every pivot in one pass over the pivot entries of its input.
``insert`` keeps the invariant (the new row is reduced, and its pivot is
eliminated from every stored row), and ``Subspace.echelon`` is given
rows that already keep it.

A batch goes in through ``extend``, in descending order of leading
(smallest) column.  A stored row holds only columns at or above its own
pivot, so a new pivot below ``low``, the smallest stored pivot, sits in
no stored row: ``insert`` then stores the row and skips the
back-substitution scan over every stored row.  Inserted in arrival
order, a low pivot is eliminated from every row that holds it.  The row
space, and with it the unique reduced echelon form, does not depend on
the order, so the rows come out the same either way.
``Subspace.echelon`` writes down rows that are already a reduced
echelon basis (unit vectors, or a kernel), with no insert.  On top of
the engine sit ``Subspace`` (canonical bases, sums and intersections)
and ``Expressor`` (coefficients of a target over a generator list).

Kernels are read off one way: ``kernel`` takes the images of the basis
vectors and returns the kernel's reduced echelon basis, read off one
echelon of the transposed images with the columns in descending order.
It serves the Hopf integral and the character components, both as the
common eigenvectors of maps given by sparse columns (``eigen_images``
writes the columns of every C − λ as one set of images), the trace of
an ideal on A and ``U ∩ V``: the set of combinations of the rows of U
whose residues modulo V's echelon cancel, so ``Subspace.intersect``
reduces the rows of the smaller operand by the larger one's existing
echelon and combines them along the kernel of the residues.  Rows of a
reduced echelon basis taken in pivot order and combined along a
kernel's reduced echelon basis give a reduced echelon basis again, so
each of these results is written down by ``Subspace.echelon``.

``Matrix`` is a small dense value type for group elements and generator
matrices.  Column convention: ``M[i][j]`` is the coefficient of basis
vector *i* in the image of basis vector *j*.  Its ``rref`` and ``rank``
go through ``SparseEch``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import Cyc, ONE, ZERO, addmul, coerce

Vec = dict  # dict[int, Cyc], zero entries omitted


# ---------------------------------------------------------------------------
# sparse vector helpers; vec_addto and vec_scale take any dict keys, so
# polynomials keyed by words or exponent tuples use them too


def vec_addto(acc: Vec, v: Vec, c: Cyc = ONE) -> None:
    """In-place acc += c * v, pruning entries that cancel to zero.

    Into an empty acc nothing can cancel, since x·c ≠ 0 in a field: a
    factor that is the shared ``ONE`` copies v's entries in, and any other
    factor writes ``addmul(None, x, c)`` per entry with no lookup.  The
    entries are immutable values, so acc shares them with v, not v
    itself."""
    if c.is_zero():
        return
    if not acc:
        if c is ONE:
            acc.update(v)
        else:
            for k, x in v.items():
                acc[k] = addmul(None, x, c)
        return
    get = acc.get
    for k, x in v.items():
        new = addmul(get(k), x, c)
        if new is None:
            del acc[k]
        else:
            acc[k] = new


def vec_scale(v: Vec, c: Cyc) -> Vec:
    if c.is_zero():
        return {}
    return {k: x * c for k, x in v.items()}


def apply_cols(cols: Sequence[Vec], vec: Vec) -> Vec:
    """Image of vec under the linear map whose k-th column is cols[k]; a
    zero column adds nothing and is skipped."""
    out: Vec = {}
    for k, c in vec.items():
        col = cols[k]
        if col:
            vec_addto(out, col, c)
    return out


def vec_from_dense(xs: Sequence) -> Vec:
    out = {}
    for k, x in enumerate(xs):
        x = coerce(x)
        if not x.is_zero():
            out[k] = x
    return out


def vec_to_dense(v: Vec, dim: int) -> list:
    out = [ZERO] * dim
    for k, x in v.items():
        out[k] = x
    return out


# ---------------------------------------------------------------------------
# sparse row-echelon engine


class SparseEch:
    """Eagerly row-reduced sparse span of vectors in dimension ``dim``.

    ``rows`` maps pivot column -> row; each row has coefficient 1 at its
    pivot and no entry at any other pivot column, so reducing a vector is
    a single pass over its pivot-column entries.  ``low`` is the smallest
    pivot (``dim`` while there is none); whatever writes ``rows`` keeps
    it so.
    """

    __slots__ = ("dim", "rows", "low")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, Vec] = {}
        self.low = dim

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """vec minus its projection onto the span (a fresh dict), in one
        pass over the pivot entries of vec: a stored row holds no other
        pivot column, so subtracting it leaves the others as they were."""
        v = dict(vec)
        rows = self.rows
        for p in [k for k in vec if k in rows]:
            c = -v.pop(p)
            for k, x in rows[p].items():
                if k == p:
                    continue
                new = addmul(v.get(k), x, c)
                if new is None:
                    del v[k]
                else:
                    v[k] = new
        return v

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Add vec to the span; True if the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        lead = v[p]
        if lead.n == 1 and lead.nums[0] == 1 and lead.den == 1:
            row = v  # reduce gave a fresh dict, already normalised
        else:
            inv = lead.inverse()
            row = {k: x * inv for k, x in v.items()}
            row[p] = ONE
        if p < self.low:
            # a stored row holds no column below its own pivot, and every
            # stored pivot is above p
            self.low = p
            self.rows[p] = row
            return True
        for r in self.rows.values():
            c = r.get(p)
            if c is not None:
                del r[p]
                c = -c
                for k, x in row.items():
                    if k == p:
                        continue
                    new = addmul(r.get(k), x, c)
                    if new is None:
                        del r[k]
                    else:
                        r[k] = new
        self.rows[p] = row
        return True

    def extend(self, vecs: Iterable[Vec]) -> None:
        """Insert a batch, nonzero vectors in descending order of leading
        column, so that new pivots mostly land below the stored ones."""
        for v in sorted(filter(None, vecs), key=min, reverse=True):
            self.insert(v)

    def basis(self) -> list[Vec]:
        return [dict(self.rows[p]) for p in sorted(self.rows)]


# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of k^dim with a canonical reduced-echelon basis.

    Two subspaces are equal iff their canonical bases coincide, so ``==``
    is genuine subspace equality.
    """

    __slots__ = ("_ech",)

    def __init__(self, dim: int):
        self._ech = SparseEch(dim)

    @classmethod
    def span(cls, dim: int, vecs: Iterable[Vec]) -> "Subspace":
        s = cls(dim)
        s.extend(vecs)
        return s

    @classmethod
    def echelon(cls, dim: int, rows: Iterable[Vec]) -> "Subspace":
        """The span of rows that already form a reduced echelon basis (each
        row 1 at its pivot, its smallest column, and no entry at another
        row's pivot), written down as they are: nothing is eliminated.  The
        subspace keeps the row dicts themselves."""
        s = cls(dim)
        ech = s._ech
        ech.rows = {min(r): r for r in rows}
        ech.low = min(ech.rows, default=dim)
        return s

    @property
    def ambient(self) -> int:
        return self._ech.dim

    @property
    def dim(self) -> int:
        return self._ech.rank

    def add(self, vec: Vec) -> bool:
        return self._ech.insert(vec)

    def extend(self, vecs: Iterable[Vec]) -> None:
        self._ech.extend(vecs)

    def contains(self, vec: Vec) -> bool:
        return self._ech.contains(vec)

    def reduce(self, vec: Vec) -> Vec:
        return self._ech.reduce(vec)

    def basis(self) -> list[Vec]:
        return self._ech.basis()

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self._ech.rows.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._ech.rows == other._ech.rows

    def __hash__(self):
        raise TypeError("subspaces are unhashable")

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V: the combinations of the rows of the smaller operand whose
        residues modulo the larger operand's echelon cancel.  The rows in
        pivot order, combined along the reduced echelon basis of those
        combinations, are again a reduced echelon basis."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        small, large = (self, other) if self.dim <= other.dim else (other, self)
        rows = [small._ech.rows[p] for p in sorted(small._ech.rows)]
        relations = kernel([large.reduce(u) for u in rows])
        return Subspace.echelon(self.ambient, [apply_cols(rows, c) for c in relations])

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


# ---------------------------------------------------------------------------


class Expressor:
    """Writes targets as linear combinations of a fixed generator list.

    Generators are stored with tracking coordinates appended; reducing an
    augmented target leaves the negated combination coefficients in the
    tracking block whenever the target lies in the span.
    """

    __slots__ = ("dim", "count", "_ech")

    def __init__(self, dim: int, gens: Sequence[Vec]):
        self.dim = dim
        self.count = len(gens)
        self._ech = SparseEch(dim + self.count)
        for i, g in enumerate(gens):
            row = dict(g)
            row[dim + i] = ONE
            self._ech.insert(row)

    def coeffs(self, target: Vec) -> list | None:
        """Coefficients c with target = sum c_i * gens[i], or None."""
        v = self._ech.reduce(dict(target))
        if any(k < self.dim for k in v):
            return None
        out = [ZERO] * self.count
        for k, x in v.items():
            out[k - self.dim] = -x
        return out


def express(dim: int, gens: Sequence[Vec], target: Vec) -> list | None:
    return Expressor(dim, gens).coeffs(target)


def kernel(images: Sequence[Vec]) -> list[Vec]:
    """Reduced echelon basis of {c : Σ_j c_j images[j] = 0}, in ascending
    order of pivot, read off one echelon.

    The rows of the map whose j-th column is images[j] go in with column j
    at position n − 1 − j, as ``ncalg.QuotientModule`` orders its carrier,
    so that each stored row pivots on its largest index and holds only
    free indices below it.  Each free index f gives the vector with 1 at f
    and, at each pivot p whose row holds f, minus that entry: its smallest
    index is f and it holds no other free index, so the vectors are the
    kernel's reduced echelon rows, with no further elimination.
    """
    n = len(images)
    rows: dict[int, Vec] = {}
    for j, image in enumerate(images):
        c = n - 1 - j
        for r, x in image.items():
            row = rows.get(r)
            if row is None:
                rows[r] = {c: x}
            else:
                row[c] = x
    ech = SparseEch(n)
    ech.extend(rows.values())
    out = {n - 1 - c: {n - 1 - c: ONE} for c in range(n) if c not in ech.rows}
    for p, row in ech.rows.items():
        for c, x in row.items():
            if c != p:
                out[n - 1 - c][n - 1 - p] = -x
    return [dict(sorted(out[f].items())) for f in sorted(out)]


def eigen_images(dim: int, maps: Iterable[tuple[Sequence[Vec], Cyc]]) -> list[Vec]:
    """The columns of x -> (C x − λ x) over every (columns of C, λ) in
    maps, the rows of the m-th map at m·dim + r: ``kernel`` of them is
    {x : C x = λ x for every map}.  The −λ goes on the diagonal of a copy
    of each column."""
    images: list[Vec] = [{} for _ in range(dim)]
    for m, (cols, lam) in enumerate(maps):
        shift, neg = m * dim, -lam
        for c, col in enumerate(cols):
            image = images[c]
            for r, x in col.items():
                image[shift + r] = x
            if neg:
                x = addmul(col.get(c), ONE, neg)
                if x is None:
                    del image[shift + c]
                else:
                    image[shift + c] = x
    return images


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[coerce(x) for x in row] for row in rows]
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            return Matrix([])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        raise TypeError("matrices are unhashable")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        out = []
        for row in self.rows:
            acc = [None] * cols
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] = addmul(acc[j], a, b)
            out.append([ZERO if x is None else x for x in acc])
        return Matrix(out)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row-echelon form and the pivot column list.

        A ``SparseEch`` row has coefficient 1 at its pivot and no entry at
        any other pivot, so its rows in pivot order are the unique RREF.
        """
        ncols = self.ncols
        ech = SparseEch(ncols)
        for row in self.rows:
            ech.insert(vec_from_dense(row))
        pivots = sorted(ech.rows)
        red = [vec_to_dense(ech.rows[p], ncols) for p in pivots]
        red.extend([ZERO] * ncols for _ in range(self.nrows - len(pivots)))
        return Matrix(red), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"
