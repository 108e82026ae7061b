import gc
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreflect import ncalg
from ncreflect.exprs import parse
from ncreflect.linalg import Subspace
from ncreflect.ncalg import (
    DegreeOverflow,
    Elem,
    GradedAlgebra,
    QuotientModule,
    RelationAboveBound,
    left_ideal_slices,
    mul_space_elem,
    right_ideal_slices,
    two_sided_ideal_slices,
)
from ncreflect.presets import catalog
from ncreflect.scalars import Cyc, I, ONE

from ncreflect.invariants import component_report, fixed_ring

from oracles import (
    QuotientOracle,
    augmentation_module,
    free_words,
    ideal_slices_eliminating,
    module_kernel,
    mul_left_words,
    products_inside,
    project_by_reduce,
    subalgebra_slices,
    submodule_by_pushes,
)


def qp_relation(q):
    # v*u - q*u*v
    return {(1, 0): ONE, (0, 1): -q}


def quantum_plane(q=I, max_degree=12):
    return GradedAlgebra(["u", "v"], [qp_relation(q)], max_degree=max_degree)


def skew3(max_degree=12):
    gens = ["x", "y", "z"]
    rels = [parse(s, gens) for s in ("z*x + x*z", "y*x - z*y", "y*z - x*y")]
    return GradedAlgebra(gens, rels, max_degree=max_degree)


def downup(max_degree=12):
    gens = ["u", "d"]
    rels = [parse(s, gens) for s in ("d*u^2 - u^2*d", "d^2*u - u*d^2")]
    return GradedAlgebra(gens, rels, max_degree=max_degree)


def test_quantum_plane_dimensions_and_basis():
    alg = quantum_plane()
    assert alg.hilbert(8) == [d + 1 for d in range(9)]
    assert alg.basis_words(2) == [(0, 0), (0, 1), (1, 1)]
    # v*u rewrites to i*u*v
    assert alg.element("v*u") == alg.element("i*u*v")
    assert alg.element("v*u - i*u*v").is_zero()


def test_free_algebra_without_relations():
    alg = GradedAlgebra(["a", "b"], [], max_degree=8)
    assert alg.hilbert(6) == [2 ** d for d in range(7)]


def test_skew3_dimensions():
    alg = skew3()
    assert alg.hilbert(8) == [(d + 1) * (d + 2) // 2 for d in range(9)]


def test_downup_dimensions():
    alg = downup()
    assert alg.hilbert(12) == [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49]
    # normal words avoid the rewritten leading words d*u*u and d*d*u
    for w in alg.basis_words(4):
        assert (1, 0, 0) not in [w[i:i + 3] for i in range(2)]
        assert (1, 1, 0) not in [w[i:i + 3] for i in range(2)]
    assert alg.element("d*u^2") == alg.element("u^2*d")


def test_weighted_generators():
    gens = ["x", "y"]
    alg = GradedAlgebra(gens, [parse("x*y - y*x", gens)], weights=[1, 2], max_degree=10)
    assert alg.hilbert(7) == [1, 1, 2, 2, 3, 3, 4, 4]
    assert alg.element("x*y") == alg.element("y*x")


def test_engine_matches_quotient_oracle():
    cases = [
        (2, [qp_relation(I)], None, 6),
        (3, [parse(s, ["x", "y", "z"]) for s in ("z*x + x*z", "y*x - z*y", "y*z - x*y")], None, 4),
        (2, [parse(s, ["u", "d"]) for s in ("d*u^2 - u^2*d", "d^2*u - u*d^2")], None, 6),
        (2, [parse("x*y - y*x", ["x", "y"])], [1, 2], 6),
    ]
    for nletters, rels, weights, maxdeg in cases:
        names = ["g%d" % k for k in range(nletters)]
        alg = GradedAlgebra(names, rels, weights=weights, max_degree=maxdeg)
        oracle = QuotientOracle(nletters, rels, weights)
        for d in range(maxdeg + 1):
            assert alg.basis_words(d) == oracle.basis(d)
        top = min(4, maxdeg)
        for word in free_words(nletters, alg.weights, top):
            got = alg.nf_word(word)
            words = alg.basis_words(sum(alg.weights[i] for i in word))
            assert {words[k]: c for k, c in got.items()} == oracle.nf(word)


@st.composite
def presentations(draw):
    """2-3 letters of weight 1 or 2 and 1-3 homogeneous relations of degree
    2-4, each a few distinct words with integer coefficients in -2..2, the
    first of them nonzero."""
    nletters = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=nletters, max_size=nletters))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.sampled_from([r for r in (2, 3, 4) if free_words(nletters, weights, r)]))
        words = draw(st.lists(st.sampled_from(free_words(nletters, weights, degree)),
                              min_size=1, max_size=4, unique=True))
        coeffs = [draw(st.sampled_from([-2, -1, 1, 2]))]
        coeffs += draw(st.lists(st.integers(-2, 2), min_size=len(words) - 1,
                                max_size=len(words) - 1))
        rels.append({w: Cyc.rational(c) for w, c in zip(words, coeffs) if c})
    return nletters, weights, rels


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(presentations())
def test_random_presentations_match_quotient_oracle(presentation):
    """Basis words, the normal form of every free word and the left letter
    maps agree with the full free-slice elimination through degree 5."""
    nletters, weights, rels = presentation
    D = 5
    alg = GradedAlgebra(["g%d" % k for k in range(nletters)], rels, weights=weights, max_degree=D)
    oracle = QuotientOracle(nletters, rels, weights)

    def words_of(vec, degree):
        words = alg.basis_words(degree)
        return {words[k]: c for k, c in vec.items()}

    for d in range(D + 1):
        assert alg.basis_words(d) == oracle.basis(d), d
        for word in free_words(nletters, weights, d):
            assert words_of(alg.nf_word(word), d) == oracle.nf(word), word
    for i, w in enumerate(weights):
        for e in range(D - w + 1):
            cols = alg.left_letter(i, e)
            assert len(cols) == alg.dim(e)
            for b, col in zip(alg.basis_words(e), cols):
                assert words_of(col, e + w) == oracle.nf((i,) + b), (i, b)


def add_at_by_lookup(acc, at, vec, c) -> None:
    """acc += c·vec at the positions ``at``, each entry looked up, formed as
    a product and then a sum, and deleted when it cancels."""
    for k, x in vec.items():
        key, cur = at[k], acc.get(at[k])
        new = x * c if cur is None else cur + x * c
        if new.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = new


_entry = st.sampled_from([ONE, -ONE, Cyc.rational(2), Cyc.rational(-1, 3), I, I + 1])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), _entry), min_size=1, max_size=4),
       st.permutations(range(6)),
       st.sampled_from([ONE, -ONE, Cyc(1, [1]), Cyc(1, [-1]), Cyc.rational(3, 2), I]))
def test_add_at_matches_the_lookup_loop(vecs, at, c):
    """_add_at into an empty acc (the first vector) and into a filled one
    (the rest) leaves the entries, normal forms and order of the lookup
    loop, and changing acc afterwards leaves each vector as it was."""
    before = [list(v.items()) for v in vecs]
    fast, slow = {}, {}
    for v in vecs:
        ncalg._add_at(fast, at, v, c)
        add_at_by_lookup(slow, at, v, c)
        assert [(k, (x.n, x.nums, x.den)) for k, x in fast.items()] == \
            [(k, (x.n, x.nums, x.den)) for k, x in slow.items()]
    fast.clear()
    assert [list(v.items()) for v in vecs] == before


def module_parts(module: QuotientModule) -> tuple:
    """What a quotient module reads off its echelons: the dimensions, the
    basis labels, the letter maps and the images π(u ⊗ e_h) kept so far."""
    return module.dims, module._labels, module._letters, module._images


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(presentations())
def test_letter_maps_read_off_the_echelon_match_reduction(presentation):
    """The letter maps of A read off the echelon are the ones that reducing
    each carrier column modulo the relation rows gives."""
    nletters, weights, rels = presentation
    D = 5
    names = ["g%d" % k for k in range(nletters)]
    got = GradedAlgebra(names, rels, weights=weights, max_degree=D)
    got.build(D)
    with mock.patch.object(ncalg, "_project", project_by_reduce):
        want = GradedAlgebra(names, rels, weights=weights, max_degree=D)
        want.build(D)
    assert module_parts(got._module) == module_parts(want._module)


def test_presentation_invariance():
    gens = ["x", "y", "z"]
    rels = [parse(s, gens) for s in ("z*x + x*z", "y*x - z*y", "y*z - x*y")]
    base = skew3(max_degree=6)
    rng = random.Random(9)
    shuffled = rels[::-1]
    scaled = []
    for r in rels:
        scale = Cyc.rational(rng.choice([2, 3, -1]), rng.choice([1, 2]))
        scaled.append({w: c * scale for w, c in r.items()})
    for variant in (shuffled, scaled):
        alg = GradedAlgebra(gens, variant, max_degree=6)
        for d in range(7):
            assert alg.basis_words(d) == base.basis_words(d)


def test_associativity_randomised():
    alg = skew3(max_degree=9)
    rng = random.Random(20260815)

    def rand_elem(deg):
        dim = alg.dim(deg)
        vec = {}
        for k in rng.sample(range(dim), min(3, dim)):
            c = Cyc.rational(rng.randint(-2, 2))
            if not c.is_zero():
                vec[k] = c
        return Elem(alg, deg, vec)

    for _ in range(12):
        a = rand_elem(rng.randint(1, 3))
        b = rand_elem(rng.randint(1, 3))
        c = rand_elem(rng.randint(1, 3))
        assert ((a * b) * c) == (a * (b * c))


def test_degree_overflow():
    alg = quantum_plane(max_degree=5)
    assert alg.dim(5) == 6
    with pytest.raises(DegreeOverflow):
        alg.dim(6)
    with pytest.raises(DegreeOverflow):
        alg.element("u^2") * alg.element("v^4")
    # reports name the product's degree, not the first slice past the bound
    with pytest.raises(DegreeOverflow) as exc:
        alg.element("u^2") * alg.element("v^5")
    assert exc.value.degree == 7


def test_algebra_is_freed_by_reference_counting():
    """A keeps its slices in its own quotient module; no reference cycle
    between them may hold a dropped algebra until the next collection."""
    alg = quantum_plane(max_degree=6)
    assert alg.element("u") * alg.element("v^3") == alg.element("u*v^3")
    ref = weakref.ref(alg)
    gc.disable()
    try:
        del alg
        assert ref() is None
    finally:
        gc.enable()


def test_rejects_bad_presentations():
    with pytest.raises(ValueError):
        GradedAlgebra(["x", "x"], [])
    with pytest.raises(ValueError):
        GradedAlgebra(["x", "y"], [parse("x + x*y", ["x", "y"])])  # inhomogeneous
    with pytest.raises(ValueError):
        GradedAlgebra(["x", "y"], [{}])  # zero relation
    with pytest.raises(ValueError):
        GradedAlgebra(["x", "y"], [], weights=[1])
    with pytest.raises(ValueError):
        GradedAlgebra(["x", "y"], [parse("2 - x*y", ["x", "y"])])
    with pytest.raises(RelationAboveBound) as e:  # no slice can hold the relation
        GradedAlgebra(["x", "y"], [parse("x*y", ["x", "y"]), parse("x^3*y", ["x", "y"])],
                      max_degree=3)
    assert (e.value.index, e.value.degree, e.value.bound) == (1, 4, 3)


def test_normal_element_ideals_agree():
    # u is normal in the quantum plane, so Au = uA = (u)
    alg = quantum_plane(max_degree=8)
    u = alg.element("u")
    left = left_ideal_slices(alg, [u], 8)
    right = right_ideal_slices(alg, [u], 8)
    both = two_sided_ideal_slices(alg, [u], 8)
    assert left == right == both
    assert [s.dim for s in left] == [0] + [d for d in range(1, 9)]


def test_left_right_ideals_differ_when_not_normal():
    alg = downup(max_degree=8)
    u = alg.element("u")
    left = left_ideal_slices(alg, [u], 6)
    right = right_ideal_slices(alg, [u], 6)
    both = two_sided_ideal_slices(alg, [u], 6)
    assert any(left[d] != right[d] for d in range(7))
    for d in range(7):
        assert left[d] <= both[d] and right[d] <= both[d]


def test_subalgebra_slices():
    alg = skew3(max_degree=8)
    gens = [alg.element(s) for s in ("x^2", "y^2", "z^2")]
    slices = subalgebra_slices(alg, gens, 8)
    for d in range(9):
        if d % 2:
            assert slices[d].dim == 0
        else:
            k = d // 2
            assert slices[d].dim == (k + 1) * (k + 2) // 2


def test_augmentation_module_matches_ideal():
    alg = quantum_plane(max_degree=8)
    u = alg.element("u")
    sub = subalgebra_slices(alg, [u], 8)
    assert augmentation_module(alg, sub, 8, "left") == left_ideal_slices(alg, [u], 8)
    assert augmentation_module(alg, sub, 8, "right") == right_ideal_slices(alg, [u], 8)


def test_products_inside(monkeypatch):
    alg = quantum_plane(max_degree=6)
    u_line = Subspace.span(2, [alg.element("u").vec])
    v2_line = Subspace.span(3, [alg.element("v^2").vec])
    uv_line = Subspace.span(3, [alg.element("u*v").vec])
    assert not products_inside(alg, u_line, 1, u_line, 1, v2_line)  # u^2 escapes
    v_line = Subspace.span(2, [alg.element("v").vec])
    assert products_inside(alg, u_line, 1, v_line, 1, uv_line)
    assert products_inside(alg, v_line, 1, u_line, 1, uv_line)  # v*u = i*u*v
    assert not products_inside(alg, alg.slice_space(1), 1, v_line, 1, uv_line)
    # a full target holds every product, so none is formed
    monkeypatch.setattr(alg, "mul", None)
    assert products_inside(alg, alg.slice_space(2), 2, alg.slice_space(1), 1,
                           alg.slice_space(3))


def test_mul_space_elem():
    alg = quantum_plane(max_degree=6)
    space = alg.slice_space(1)
    img = mul_space_elem(alg, space, 1, alg.element("u"))
    assert img.dim == 2
    assert img.contains(alg.element("u^2").vec)
    assert img.contains(alg.element("u*v").vec)
    assert not img.contains(alg.element("v^2").vec)


@pytest.mark.parametrize("name", catalog.shipped())
def test_basis_words_are_their_own_normal_form(name):
    """What starting each relation row at its normal word rests on: every
    basis word b is the unit vector at its index, and its tail b[1:] is a
    basis word of the lower slice."""
    D = 12
    alg = catalog.build(name, max_degree=D).algebra
    for d in range(D + 1):
        for k, b in enumerate(alg.basis_words(d)):
            assert alg.nf_word(b) == {k: ONE}, b
            if d:
                assert b[1:] in alg.basis_words(d - alg.weights[b[0]]), b


@pytest.mark.parametrize("name", catalog.shipped())
def test_mul_matches_the_left_word_product(name):
    """mul lets the side with fewer letters act; the product is the one the
    words of the left factor give, on either side of the choice."""
    D = 8
    alg = catalog.build(name, max_degree=D).algebra
    rng = random.Random(name)
    scalars = [ONE, -ONE, Cyc.rational(3, 2), I, ONE - I]

    def vec(deg, size):
        return {k: rng.choice(scalars) for k in rng.sample(range(alg.dim(deg)), size)}

    sides = set()
    for dv in range(D + 1):
        for dw in range(D + 1 - dv):
            cases = [(vec(dv, rng.randint(0, alg.dim(dv))),
                      vec(dw, rng.randint(0, alg.dim(dw)))) for _ in range(3)]
            # a dense factor against a one-term one, each way round
            if alg.dim(dv) and alg.dim(dw):
                cases.append((vec(dv, alg.dim(dv)), vec(dw, 1)))
                cases.append((vec(dv, 1), vec(dw, alg.dim(dw))))
            for v, w in cases:
                sides.add(len(v) * dv <= len(w) * dw)
                assert alg.mul(v, dv, w, dw) == mul_left_words(alg, v, dv, w, dw), (dv, dw)
    assert sides == {True, False}


def test_whole_slices_need_every_generator_weight():
    """In k[x, y] with weights 1 and 2, the ideal (x) misses exactly y^(d/2):
    its odd slices are whole and its even ones are not, although the slice
    one degree down is whole."""
    gens = ["x", "y"]
    alg = GradedAlgebra(gens, [parse("x*y - y*x", gens)], weights=[1, 2], max_degree=10)
    x = alg.element("x")
    for side, fast in (("left", left_ideal_slices), ("right", right_ideal_slices),
                       ("two-sided", two_sided_ideal_slices)):
        got = fast(alg, [x], 10)
        assert got == ideal_slices_eliminating(alg, [x], 10, side)
        assert [alg.dim(d) - s.dim for d, s in enumerate(got)] == [1, 0] * 5 + [1]


@pytest.mark.parametrize("name", catalog.shipped())
def test_ideal_slices_match_the_eliminating_recursion(name):
    """The three ideal functions write a slice down as whole once the slices
    below it are; slice by slice they equal the ideals eliminated in every
    degree, for the fixed-ring generators and for one component generator."""
    D = 12
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    fixed = fixed_ring(p.action, p.chars, comp.slices, D)
    identity = p.chars.group.identity
    f = next((f for i, f in enumerate(comp.f) if i != identity and f is not None), None)
    gen_sets = [fixed.gens] + ([[f]] if f is not None else [])
    full_top = False
    for gens in gen_sets:
        for side, fast in (("left", left_ideal_slices), ("right", right_ideal_slices),
                           ("two-sided", two_sided_ideal_slices)):
            got = fast(p.algebra, gens, D)
            want = ideal_slices_eliminating(p.algebra, gens, D, side)
            for d in range(D + 1):
                assert got[d] == want[d], (side, d)
            full_top |= got[D].dim == got[D].ambient
    # the covariant ideal (R_+) is the whole slice at the bound
    assert full_top


MODULE_DEGREE = 7
MODULE_ALGEBRAS = {
    "e22": catalog.build("e22-dualD8", max_degree=MODULE_DEGREE).algebra,
    "quantum plane": quantum_plane(max_degree=MODULE_DEGREE),
}


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.sampled_from(sorted(MODULE_ALGEBRAS)), st.integers(1, 2), st.data())
def test_quotient_module_matches_the_submodule_its_generators_span(which, n, data):
    """M = A^n / A·G kept by its quotient, for one to three homogeneous
    generators of degree at most 3 with small integer coefficients: π is
    onto, so dim M_d + dim (A·G)_d = n·dim A_d; its kernel over every basis
    element is the submodule the push recursion spans, and for n = 1 the
    left ideal of the generators."""
    alg, D = MODULE_ALGEBRAS[which], MODULE_DEGREE
    gens: list[list[dict]] = [[] for _ in range(D + 1)]
    elems = []
    for _ in range(data.draw(st.integers(1, 3))):
        degree = data.draw(st.integers(0, 3))
        size = n * alg.dim(degree)
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        vec = {k: Cyc.rational(c) for k, c in enumerate(coeffs) if c}
        gens[degree].append(vec)
        elems.append(Elem(alg, degree, vec))
    module = QuotientModule(alg, n, gens)
    kernel = module_kernel(module, D)
    assert kernel == submodule_by_pushes(alg, n, gens, D)
    assert [module.dims[d] + kernel[d].dim for d in range(D + 1)] == [
        n * alg.dim(d) for d in range(D + 1)]
    if n == 1:
        assert kernel == left_ideal_slices(alg, elems, D)
