import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreflect.linalg import (
    Expressor,
    Matrix,
    SparseEch,
    Subspace,
    eigen_images,
    express,
    kernel,
    vec_addto,
    vec_from_dense,
    vec_to_dense,
)
from ncreflect.scalars import Cyc, I, ONE, ZERO, coerce, zeta

from oracles import (
    LoopingEch,
    ScanningEch,
    UnfusedEch,
    dense_eigenvectors,
    dense_rref,
    normal_forms,
    tracked_kernel,
    vec_addto_unfused,
    zassenhaus_intersect,
)


def cols_of(m: Matrix) -> list:
    return [vec_from_dense([row[j] for row in m.rows]) for j in range(m.ncols)]


def apply(m: Matrix, vec) -> list:
    """M v for a dense vector v."""
    return [sum((a * coerce(x) for a, x in zip(row, vec)), ZERO) for row in m.rows]


def span_sum(u: Subspace, v: Subspace) -> Subspace:
    return Subspace.span(u.ambient, u.basis() + v.basis())


def test_vector_helpers():
    v = vec_from_dense([1, 0, Fraction(2, 3)])
    assert set(v) == {0, 2}
    vec_addto(v, {0: Cyc.rational(-1)})
    assert set(v) == {2}
    assert vec_to_dense(v, 3) == [ZERO, ZERO, Cyc.rational(2, 3)]


def test_subspace_basics():
    s = Subspace(3)
    assert s.add(vec_from_dense([1, 1, 0]))
    assert s.add(vec_from_dense([0, 1, 1]))
    assert not s.add(vec_from_dense([1, 2, 1]))  # dependent
    assert s.dim == 2
    assert s.contains(vec_from_dense([2, 3, 1]))
    assert not s.contains(vec_from_dense([0, 0, 1]))


def test_subspace_equality_is_canonical():
    a = Subspace.span(3, [vec_from_dense([1, 1, 0]), vec_from_dense([0, 0, 1])])
    b = Subspace.span(3, [vec_from_dense([2, 2, 2]), vec_from_dense([0, 0, -5])])
    assert a == b
    c = Subspace.span(3, [vec_from_dense([1, 0, 0])])
    assert a != c


def test_sum_and_intersection():
    u = Subspace.span(3, [vec_from_dense([1, 0, 0]), vec_from_dense([0, 1, 0])])
    v = Subspace.span(3, [vec_from_dense([0, 1, 0]), vec_from_dense([0, 0, 1])])
    w = u.intersect(v)
    assert w.dim == 1
    assert w.contains(vec_from_dense([0, 1, 0]))
    assert span_sum(u, v).dim == 3


def test_intersection_dimension_formula_randomised():
    rng = random.Random(77)
    for _ in range(25):
        dim = rng.randint(2, 6)

        def rv():
            return vec_from_dense([rng.randint(-3, 3) for _ in range(dim)])

        u = Subspace.span(dim, [rv() for _ in range(rng.randint(1, dim))])
        v = Subspace.span(dim, [rv() for _ in range(rng.randint(1, dim))])
        assert span_sum(u, v).dim + u.intersect(v).dim == u.dim + v.dim


@pytest.mark.parametrize("conductor", [1, 8, 12])
def test_intersect_matches_zassenhaus(conductor):
    rng = random.Random(3000 + conductor)
    units = [zeta(conductor, k) for k in range(conductor)]

    def vec(dim):
        return vec_from_dense([
            ZERO if rng.random() < 0.4
            else Cyc.rational(rng.randint(-3, 3), rng.randint(1, 2)) * rng.choice(units)
            for _ in range(dim)])

    def span(dim, k):
        return Subspace.span(dim, [vec(dim) for _ in range(k)])

    for _ in range(20):
        dim = rng.randint(1, 7)
        u = span(dim, rng.randint(0, dim))
        pairs = [
            (u, span(dim, rng.randint(0, dim))),  # random
            (u, Subspace(dim)),  # zero
            (u, Subspace.span(dim, [{k: ONE} for k in range(dim)])),  # full
            (u, span(dim, u.dim)),  # equal dimension
            (u, Subspace.span(dim, u.basis()[: rng.randint(0, u.dim)])),  # nested
            (u, Subspace.span(dim, u.basis())),  # equal
        ]
        for a, b in pairs:
            want = zassenhaus_intersect(a, b)
            assert a.intersect(b) == want
            assert b.intersect(a) == want


@pytest.mark.parametrize("conductor", [1, 8, 12])
def test_extend_matches_one_at_a_time_insert(conductor):
    """A batch inserted in descending leading-column order leaves the same
    rows as inserting it vector by vector in the given order."""
    rng = random.Random(5000 + conductor)
    units = [zeta(conductor, k) for k in range(conductor)]

    def scalar():
        return Cyc.rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) \
            * rng.choice(units)

    def vec(dim):
        return {k: scalar() for k in range(dim) if rng.random() < 0.3}

    deficient = 0
    for trial in range(60):
        dim = rng.randint(1, 12)
        start = [vec(dim) for _ in range(rng.randint(0, 3))]
        batch = [vec(dim) for _ in range(rng.randint(1, 10))]
        kind = trial % 4
        if kind == 1:  # zero vectors
            for _ in range(2):
                batch.insert(rng.randint(0, len(batch)), {})
        elif kind == 2:  # duplicates
            batch.insert(rng.randint(0, len(batch)), dict(rng.choice(batch)))
        elif kind == 3:  # rank-deficient: combinations of batch vectors
            for _ in range(2):
                combo = {}
                vec_addto(combo, rng.choice(batch), scalar())
                vec_addto(combo, rng.choice(batch), scalar())
                batch.insert(rng.randint(0, len(batch)), combo)
        one, many = SparseEch(dim), SparseEch(dim)
        for v in start:
            one.insert(v)
            many.insert(v)
        for v in batch:
            one.insert(v)
        many.extend(batch)
        assert many.rows == one.rows
        deficient += many.rank < len(start) + sum(1 for v in batch if v)
        spanned = Subspace(dim)
        for v in batch:
            spanned.add(v)
        assert Subspace.span(dim, batch) == spanned
    assert deficient


@st.composite
def insert_batches(draw):
    """An ambient dimension and a batch of sparse vectors over Q(i), with
    zero vectors, duplicates and scalar multiples mixed in."""
    n = draw(st.integers(1, 10))
    scalar = st.sampled_from([ONE, -ONE, Cyc.rational(2), Cyc.rational(-1, 3), I, -I,
                              ONE + I, Cyc.rational(1, 2) - I])
    vec = st.dictionaries(st.integers(0, n - 1), scalar, max_size=min(n, 4))
    batch = draw(st.lists(vec, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "multiple"]))
        if kind == "zero" or not batch:
            extra = {}
        else:
            v = draw(st.sampled_from(batch))
            extra = dict(v) if kind == "duplicate" else {k: x * I for k, x in v.items()}
        batch.insert(draw(st.integers(0, len(batch))), extra)
    return n, batch


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(insert_batches(), st.data())
def test_guarded_insert_matches_scanning_insert(case, data):
    """The lowest-pivot guard leaves the rows and every return value of the
    scanning insert, whatever the order: ascending leading columns (the
    guard never fires past the first pivot), descending (it fires for
    every new leading column) and shuffled."""
    n, batch = case

    def lead(v):
        return min(v, default=n)

    orders = [sorted(batch, key=lead), sorted(batch, key=lead, reverse=True),
              data.draw(st.permutations(batch))]
    for order in orders:
        fast, slow = SparseEch(n), ScanningEch(n)
        for v in order:
            assert fast.insert(v) == slow.insert(v)
            assert fast.low == min(fast.rows, default=n)
        assert fast.rows == slow.rows


@st.composite
def fused_batches(draw):
    """An ambient dimension and a batch of sparse vectors over Q, Q(i) or
    Q(zeta_12), half of them with a leading coefficient of 1 (a unit
    pivot when nothing stored reduces it), with scalar multiples and
    combinations that cancel mixed in."""
    n = draw(st.integers(1, 9))
    conductor = draw(st.sampled_from([1, 4, 12]))
    units = [zeta(conductor, k) for k in range(conductor)]
    scalar = st.builds(lambda r, u: r * u,
                       st.sampled_from([ONE, -ONE, Cyc.rational(2), Cyc.rational(-1, 3),
                                        Cyc.rational(5, 2)]),
                       st.sampled_from(units))
    vec = st.dictionaries(st.integers(0, n - 1), scalar, max_size=min(n, 5))
    batch = []
    for v in draw(st.lists(vec, max_size=12)):
        if v and draw(st.booleans()):
            v[min(v)] = ONE
        batch.append(v)
    for _ in range(draw(st.integers(0, 3))):
        if len(batch) < 2:
            break
        u, w = draw(st.sampled_from(batch)), draw(st.sampled_from(batch))
        combo = {}
        vec_addto_unfused(combo, u, draw(scalar))
        vec_addto_unfused(combo, w, draw(scalar))
        batch.insert(draw(st.integers(0, len(batch))), combo)
    return n, batch


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(fused_batches(), st.data())
def test_fused_echelon_matches_the_unfused_one(case, data):
    """Reduce and insert through the fused a + x·c kernel, with a unit
    pivot stored as it is, leave the rows, their entries' normal forms,
    ``low``, the rank and every return value of the unfused echelon:
    inserted one at a time in two orders, and through ``extend``."""
    n, batch = case

    def state(ech):
        return {p: normal_forms(r) for p, r in ech.rows.items()}, ech.low, ech.rank

    for order in (batch, data.draw(st.permutations(batch))):
        fast, slow = SparseEch(n), UnfusedEch(n)
        for v in order:
            assert fast.insert(v) == slow.insert(v)
            assert state(fast) == state(slow)
        for v in batch:
            assert normal_forms(fast.reduce(v)) == normal_forms(slow.reduce(v))
    fast, slow = SparseEch(n), UnfusedEch(n)
    fast.extend(batch)
    slow.extend(batch)
    assert state(fast) == state(slow)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(fused_batches(), st.data())
def test_fused_vec_addto_matches_the_unfused_one(case, data):
    """acc += c·v through the kernel leaves the entries, their normal forms
    and their order of the product-then-sum loop, cancellations included."""
    n, batch = case
    fast, slow = {}, {}
    for v in batch:
        c = data.draw(st.sampled_from([ONE, -ONE, Cyc.rational(3, 2), I, zeta(12, 5)]))
        vec_addto(fast, v, c)
        vec_addto_unfused(slow, v, c)
        assert list(normal_forms(fast).items()) == list(normal_forms(slow).items())
        vec_addto(fast, v, -c)
        vec_addto_unfused(slow, v, -c)
        assert list(normal_forms(fast).items()) == list(normal_forms(slow).items())


# ±1 shared and built anew, and factors that are no unit
EMPTY_TARGET_FACTORS = [ONE, -ONE, Cyc(1, [1]), Cyc(1, [-1]), Cyc.rational(3, 2), I,
                        zeta(12, 5)]


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(fused_batches(), st.sampled_from(EMPTY_TARGET_FACTORS), st.data())
def test_vec_addto_into_nothing_matches_the_general_loop(case, c, data):
    """Into an empty acc, c·v copied or written entry by entry has the
    entries, normal forms and order of the product-then-sum loop, and
    changing acc afterwards leaves v as it was."""
    _, batch = case
    for v in batch:
        before = list(normal_forms(v).items())
        fast, slow = {}, {}
        vec_addto(fast, v, c)
        vec_addto_unfused(slow, v, c)
        assert list(normal_forms(fast).items()) == list(normal_forms(slow).items())
        if fast:
            k = data.draw(st.sampled_from(sorted(fast)))
            vec_addto(fast, {k: fast[k]}, Cyc.rational(2))
            fast[max(fast) + 1] = ONE
            del fast[k]
        assert list(normal_forms(v).items()) == before


@st.composite
def pivot_batches(draw):
    """An ambient dimension, a batch of sparse vectors over Q, Q(i) or
    Q(zeta_8), and either None or the unit vectors to start from."""
    n = draw(st.integers(1, 10))
    conductor = draw(st.sampled_from([1, 4, 8]))
    units = [zeta(conductor, k) for k in range(conductor)]
    scalar = st.builds(lambda r, u: r * u,
                       st.sampled_from([ONE, -ONE, Cyc.rational(2), Cyc.rational(-1, 3)]),
                       st.sampled_from(units))
    vec = st.dictionaries(st.integers(0, n - 1), scalar, max_size=min(n, 5))
    start = draw(st.none() | st.sets(st.integers(0, n - 1), max_size=n // 2))
    return n, draw(st.lists(vec, max_size=12)), start


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(pivot_batches(), st.data())
def test_no_row_holds_another_pivot_column(case, data):
    """After every insert, no stored row holds a pivot column other than its
    own and no reduced vector holds any, whether the batch comes in
    descending leading column (each new pivot below ``low``) or shuffled,
    from nothing or from unit rows written down by ``Subspace.echelon``:
    so one pass of ``reduce``
    clears every pivot.  The reduce that re-scans until no pivot column
    is left gives the same rows and the same residues."""
    n, batch, start = case
    for order in (sorted(batch, key=lambda v: min(v, default=n), reverse=True),
                  data.draw(st.permutations(batch))):
        fast = SparseEch(n) if start is None else Subspace.echelon(n, unit_rows(start))._ech
        slow = LoopingEch(n)
        slow.rows = {p: dict(r) for p, r in fast.rows.items()}
        slow.low = fast.low
        for v in order:
            assert fast.insert(v) == slow.insert(v)
            assert fast.rows == slow.rows
            for p, row in fast.rows.items():
                assert row[p] == ONE
                assert set(row) & set(fast.rows) == {p}
            for w in batch:
                residue = fast.reduce(w)
                assert not set(residue) & set(fast.rows)
                assert normal_forms(residue) == normal_forms(slow.reduce(w))


def unit_rows(ks) -> list:
    return [{k: ONE} for k in sorted(set(ks))]


@pytest.mark.parametrize("dim, ks", [(0, []), (3, []), (1, [0]), (5, [4, 1, 3]),
                                     (6, range(6)), (4, [2, 2])])
def test_units_equals_the_span_built_by_add(dim, ks):
    """Unit rows written down by ``Subspace.echelon`` are the span that
    ``add`` builds, and the echelon takes later inserts alike."""
    units = Subspace.echelon(dim, unit_rows(ks))
    added = Subspace(dim)
    for k in ks:
        added.add({k: ONE})
    assert units == added
    assert units.dim == len(set(ks))
    assert units._ech.low == added._ech.low == min(ks, default=dim)
    # the echelon stays usable: a later insert matches on both
    v = {k: Cyc.rational(k + 1) for k in range(0, dim, 2)}
    assert units.add(v) == added.add(v)
    assert units == added


@pytest.mark.parametrize("conductor", [1, 8, 12])
def test_expressor_relations_span_the_kernel(conductor):
    """``kernel`` gives the reduced echelon basis of the relations that the
    tracking-coordinate oracle reads off, and each one cancels."""
    rng = random.Random(4000 + conductor)
    units = [zeta(conductor, k) for k in range(conductor)]

    def scalar():
        return Cyc.rational(rng.randint(-3, 3), rng.randint(1, 2)) * rng.choice(units)

    for _ in range(30):
        dim = rng.randint(1, 6)
        gens = [vec_from_dense([scalar() if rng.random() < 0.6 else ZERO
                                for _ in range(dim)])
                for _ in range(rng.randint(0, 5))]
        if gens and rng.random() < 0.5:  # a dependent generator
            extra = {}
            vec_addto(extra, rng.choice(gens), scalar())
            vec_addto(extra, rng.choice(gens), scalar())
            gens.insert(rng.randint(0, len(gens)), extra)
        rels = kernel(gens)
        assert rels == tracked_kernel(dim, gens).basis()
        rank = Subspace.span(dim, gens).dim
        assert len(rels) == len(gens) - rank
        assert Subspace.span(len(gens), rels).dim == len(rels)
        for rel in rels:
            assert rel and all(0 <= i < len(gens) for i in rel)
            combo = {}
            for i, c in rel.items():
                vec_addto(combo, gens[i], c)
            assert combo == {}


@st.composite
def kernel_batches(draw):
    """A target dimension and a list of images over Q, Q(i) or Q(zeta_12),
    possibly empty, with zero images, repeated images and scalar
    multiples mixed in."""
    n = draw(st.integers(1, 7))
    conductor = draw(st.sampled_from([1, 4, 12]))
    units = [zeta(conductor, k) for k in range(conductor)]
    scalar = st.builds(lambda r, u: r * u,
                       st.sampled_from([ONE, -ONE, Cyc.rational(2), Cyc.rational(-1, 3)]),
                       st.sampled_from(units))
    vec = st.dictionaries(st.integers(0, n - 1), scalar, max_size=min(n, 4))
    images = draw(st.lists(vec, max_size=9))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple"]))
        if kind == "zero" or not images:
            extra = {}
        else:
            v = draw(st.sampled_from(images))
            c = ONE if kind == "repeat" else draw(scalar)
            extra = {k: x * c for k, x in v.items()}
        images.insert(draw(st.integers(0, len(images))), extra)
    return n, images


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(kernel_batches())
def test_kernel_matches_the_tracking_oracle(case):
    """The kernel read off one echelon of the transposed images is the
    reduced echelon basis of the relations the tracking-coordinate oracle
    finds: the same rows in ascending pivot order, each 1 at its pivot
    and holding no other pivot, and each combination of the images
    cancels."""
    n, images = case
    got = kernel(images)
    want = tracked_kernel(n, images)
    assert got == want.basis()
    assert Subspace.echelon(len(images), got) == want
    pivots = [min(v) for v in got]
    assert pivots == sorted(set(pivots))
    for v in got:
        assert v[min(v)] == ONE
        assert not set(v) & set(pivots) - {min(v)}
        combo = {}
        for j, c in v.items():
            vec_addto(combo, images[j], c)
        assert combo == {}
    assert len(got) == len(images) - Subspace.span(n, images).dim


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(insert_batches(), st.data())
def test_echelon_of_canonical_rows_equals_the_span(case, data):
    """``Subspace.echelon`` of a reduced echelon basis, in any order, is the
    subspace ``Subspace.span`` eliminates from the same rows: equal, with
    the same ``low`` and rank, and a later insert acts alike on both."""
    n, batch = case
    rows = Subspace.span(n, batch).basis()
    shuffled = [dict(r) for r in data.draw(st.permutations(rows))]
    written, spanned = Subspace.echelon(n, shuffled), Subspace.span(n, rows)
    assert written == spanned
    assert written._ech.low == spanned._ech.low
    assert written.dim == spanned.dim == len(rows)
    for v in [{k: Cyc.rational(k + 1) for k in range(0, n, 2)}, *batch]:
        assert written.add(v) == spanned.add(v)
        assert written == spanned


def test_expressor():
    gens = [vec_from_dense([1, 1, 0]), vec_from_dense([0, 1, 1])]
    ex = Expressor(3, gens)
    c = ex.coeffs(vec_from_dense([2, 5, 3]))
    assert c == [Cyc.rational(2), Cyc.rational(3)]
    assert ex.coeffs(vec_from_dense([1, 0, 0])) is None
    # dependent generator lists still yield a valid representation
    c2 = express(2, [vec_from_dense([1, 0]), vec_from_dense([2, 0])], vec_from_dense([3, 0]))
    assert c2 is not None
    got = {}
    vec_addto(got, vec_from_dense([1, 0]), c2[0])
    vec_addto(got, vec_from_dense([2, 0]), c2[1])
    assert got == vec_from_dense([3, 0])


def test_matrix_products_and_apply():
    m = Matrix([[1, 2], [3, 4]])
    n = Matrix([[0, 1], [1, 0]])
    assert m @ n == Matrix([[2, 1], [4, 3]])
    assert apply(m, [1, 1]) == [Cyc.rational(3), Cyc.rational(7)]
    assert Matrix.identity(2) @ m == m
    assert Matrix.from_cols([[1, 3], [2, 4]]) == m


def test_rref_rank_kernel():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ker = kernel(eigen_images(3, [(cols_of(m), ZERO)]))  # eigenvalue 0: the kernel
    assert len(ker) == 1
    assert apply(m, vec_to_dense(ker[0], 3)) == [ZERO] * 3


@pytest.mark.parametrize("conductor", [1, 8, 12])
def test_rref_matches_dense_gauss_jordan(conductor):
    rng = random.Random(1000 + conductor)
    units = [zeta(conductor, k) for k in range(conductor)]

    def entry():
        if rng.random() < 0.4:
            return ZERO
        return Cyc.rational(rng.randint(-3, 3), rng.randint(1, 2)) * rng.choice(units)

    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 5)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:  # rank-deficient: a combination of two rows
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice(units)
            rows.append([x + c * y for x, y in zip(a, b)])
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [ZERO] * ncols)
        red, pivots = Matrix(rows).rref()
        want, want_pivots = dense_rref(rows)
        assert pivots == want_pivots
        nonzero = [row for row in red.rows if any(not x.is_zero() for x in row)]
        assert nonzero == want[: len(want_pivots)]
        assert red.nrows == len(rows)


@pytest.mark.parametrize("conductor", [1, 8, 12])
def test_eigenvectors_match_dense_kernel(conductor):
    rng = random.Random(2000 + conductor)
    units = [zeta(conductor, k) for k in range(conductor)]

    def scalar():
        return Cyc.rational(rng.randint(-3, 3), rng.randint(1, 2)) * rng.choice(units)

    for _ in range(30):
        dim = rng.randint(1, 6)
        # each map is lam + left * right with one shared rank-deficient
        # right factor, so the common eigenspace is often nonzero
        rank = rng.randint(0, dim)
        right = [[scalar() for _ in range(dim)] for _ in range(rank)]
        maps = []
        for _ in range(rng.randint(0, 3)):
            lam = scalar()
            left = [[scalar() for _ in range(rank)] for _ in range(dim)]
            cols = []
            for c in range(dim):
                col = {}
                for r in range(dim):
                    x = sum((left[r][k] * right[k][c] for k in range(rank)), ZERO)
                    if r == c:
                        x = x + lam
                    if not x.is_zero():
                        col[r] = x
                cols.append(col)
            maps.append((cols, lam))
        got, want = kernel(eigen_images(dim, maps)), dense_eigenvectors(dim, maps)
        assert len(got) == len(want)
        assert Subspace.span(dim, got) == Subspace.span(dim, want)


def test_solve():
    # the columns of M as generators: M x = b  <=>  b = sum x_j * col_j
    def solve(m, b):
        return express(m.nrows, cols_of(m), vec_from_dense(b))

    assert solve(Matrix([[1, 1], [1, -1]]), [2, 0]) == [ONE, ONE]
    assert solve(Matrix([[1, 1], [1, 1]]), [0, 1]) is None
    m = Matrix([[I, ONE], [ZERO, zeta(8, 1)]])
    assert apply(m, solve(m, [1, 0])) == [ONE, ZERO]


def test_cyclotomic_entries():
    # eigenvectors of the swap matrix over Q(i)
    swap = Matrix([[0, 1], [1, 0]])
    for lam in (ONE, -ONE):
        ker = kernel(eigen_images(2, [(cols_of(swap), lam)]))
        assert len(ker) == 1
        v = vec_to_dense(ker[0], 2)
        assert apply(swap, v) == [lam * x for x in v]
    m = Matrix([[I, ONE], [ZERO, zeta(8, 1)]])
    assert m.rank() == 2


def test_shape_errors():
    with pytest.raises(ValueError):
        Matrix([[1], [1, 2]])
    with pytest.raises(ValueError):
        Matrix([[1]]) @ Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Subspace(2).intersect(Subspace(3))
