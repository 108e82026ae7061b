"""H checked at its algebra generators.

Every check that is multiplicative in one element of H runs over
``HopfAlgebra.generators`` only; each is compared here with its all-basis
form in ``tests/oracles.py``, on the shipped presets and on Hopf tables
with one entry changed.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreflect.hopf import (
    Character,
    Group,
    HopfAction,
    HopfAlgebra,
    central_idempotents,
    commutator_ideal,
    dual_group_algebra,
    dual_group_characters,
    group_algebra,
    group_linear_characters,
)
from ncreflect.invariants import check_component_multiplicativity, graded_components
from ncreflect.linalg import Subspace
from ncreflect.ncalg import GradedAlgebra
from ncreflect.presets import catalog
from ncreflect.presets.groups import dihedral8
from ncreflect.presets.kac import kac_palyutkin_characters, kac_palyutkin_hopf
from ncreflect.scalars import Cyc, I, MINUS_ONE, ONE, ZERO
from ncreflect.smash import SmashProduct

from oracles import (
    action_verify_all_pairs,
    central_idempotents_all_basis,
    commutator_ideal_all_pairs,
    components_all_probes,
    greedy_generating_set,
    integral_all_basis,
    smash_blocks_by_products,
    symmetric3,
    verify_all_triples,
)


def small_hopf_algebras():
    """(H, its characters) for kS3, kZ4, the dual of D8 and Kac-Paljutkin."""
    s3, z4, d8 = symmetric3(), Group.cyclic(4), dihedral8()
    ks3, kz4, dual = group_algebra(s3), group_algebra(z4), dual_group_algebra(d8)
    kp = kac_palyutkin_hopf()
    return {
        "kS3": (ks3, group_linear_characters(ks3)),
        "kZ4": (kz4, group_linear_characters(kz4)),
        "dual D8": (dual, dual_group_characters(dual)),
        "Kac-Paljutkin": (kp, kac_palyutkin_characters(kp)),
    }


SMALL = small_hopf_algebras()


def spanned_by_products(hopf: HopfAlgebra, gens: list[int]) -> Subspace:
    """The span of the unit, S and every product of two elements of the
    span, closed by whole passes until it stops growing."""
    space = Subspace.span(hopf.dim, [hopf.unit] + [hopf.basis_vec(s) for s in gens])
    while True:
        before = space.dim
        basis = space.basis()
        space.extend(hopf.mul_vec(u, v) for u in basis for v in basis)
        if space.dim == before:
            return space


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_span_h(name):
    hopf, _ = SMALL[name]
    gens = hopf.generators()
    assert gens == sorted(set(gens))
    assert spanned_by_products(hopf, gens).dim == hopf.dim
    # greedy: no generator lies in the subalgebra of the ones before it
    for k, s in enumerate(gens):
        assert not spanned_by_products(hopf, gens[:k]).contains(hopf.basis_vec(s))


def test_generators_of_a_one_dimensional_h_are_empty():
    h = group_algebra(Group.cyclic(1))
    assert h.dim == 1
    assert h.generators() == []
    assert HopfAlgebra.verify(h) == []
    assert h.integral() == {0: ONE}


def test_kac_paljutkin_is_generated_by_x_y_z():
    h = kac_palyutkin_hopf()
    assert [h.labels[s] for s in h.generators()] == ["x", "y", "z"]


@pytest.mark.parametrize("name", catalog.shipped())
def test_generator_checks_match_all_basis_oracles(name):
    """On every shipped preset: both forms of verify pass, the base body
    on kG and k^G too, and Λ, the
    projectors, the commutator ideal and the smash-product blocks of the
    generator forms equal those of the all-basis forms."""
    p = catalog.build(name, max_degree=4)
    hopf, chars = p.hopf, p.chars
    assert HopfAlgebra.verify(hopf) == verify_all_triples(hopf) == []
    assert hopf.integral() == integral_all_basis(hopf)
    projectors = central_idempotents(hopf, chars)
    assert projectors == central_idempotents_all_basis(hopf, chars)
    assert commutator_ideal(hopf) == commutator_ideal_all_pairs(hopf)
    for sm, idempotents in ((SmashProduct(p.action, projectors, chars.chars), projectors),
                            (SmashProduct(p.action), ())):
        basis, block_of, coords = smash_blocks_by_products(hopf, idempotents)
        assert sm.basis == basis
        assert sm.block_of == block_of
        assert sm._coords == coords


@pytest.mark.parametrize("name", catalog.shipped())
def test_generator_probes_give_the_all_basis_components(name):
    """The components probed at the generators of H are the common
    eigenspaces of every basis element at D = 12, and the certificate
    probed at the generators accepts them.  For a group action the
    generators are the greedy generating set of the group."""
    D = 12
    p = catalog.build(name, max_degree=D)
    comps = graded_components(p.action, p.chars, D)
    assert comps == components_all_probes(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    assert check_component_multiplicativity(p.action, p.chars, comps, D, projectors) == []
    if p.action.kind == "group":
        assert p.hopf.generators() == greedy_generating_set(p.action.group)


# -- Hopf tables with one entry changed ------------------------------------

SCALARS = [ZERO, ONE, MINUS_ONE, Cyc.rational(2), Cyc.rational(1, 2), I]


def corrupt(hopf: HopfAlgebra, table: str, i: int, j: int, k: int, c: Cyc) -> HopfAlgebra:
    """A copy of hopf with one entry of one table changed: mult[i][j] or
    antipode[i] becomes c at basis element k and keeps its other entries,
    the coefficient of the j-th term of Δ(i) (or of a new term (j, k))
    becomes c, or counit[i] becomes c."""
    n = hopf.dim
    i, k = i % n, k % n
    mult = [[dict(v) for v in row] for row in hopf.mult]
    comult = [list(row) for row in hopf.comult]
    counit = list(hopf.counit)
    antipode = [dict(v) for v in hopf.antipode]

    def put(vec):
        vec.pop(k, None)
        if not c.is_zero():
            vec[k] = c

    if table == "mult":
        put(mult[i][j % n])
    elif table == "antipode":
        put(antipode[i])
    elif table == "counit":
        counit[i] = c
    elif j < len(comult[i]):
        a, b, _ = comult[i][j]
        comult[i][j] = (a, b, c)
    else:
        comult[i].append((j % n, k, c))
    return HopfAlgebra(hopf.labels, hopf.unit, mult, comult, counit, antipode)


def kinds(witnesses: list[str]) -> set[str]:
    """The axioms named by a list of witnesses."""
    return {w.split(":")[0] for w in witnesses}


MULTIPLICATIVE = {"comultiplication is not multiplicative", "counit is not multiplicative"}


def outcome(fn):
    """fn()'s value, or None when it raises ValueError."""
    try:
        return fn()
    except ValueError:
        return None


def test_verify_probes_every_generator():
    """On kZ2 x Z2, with generators a and b: with b·ab = ab·b = −a,
    associativity fails only at the middle factor b; with Δ(b) = 2 b⊗b
    and Δ(ab) = 2 ab⊗ab, Δ is multiplicative at the right factor a but
    not at b.  verify names the axioms the all-basis form names."""
    klein = Group(["e", "a", "b", "ab"], [[x ^ y for y in range(4)] for x in range(4)])
    h = group_algebra(klein)
    assert h.generators() == [1, 2]
    mult = [[dict(v) for v in row] for row in h.mult]
    mult[2][3] = mult[3][2] = {1: MINUS_ONE}
    twisted = HopfAlgebra(h.labels, h.unit, mult, h.comult, h.counit, h.antipode)
    comult = [list(row) for row in h.comult]
    comult[2], comult[3] = [(2, 2, Cyc.rational(2))], [(3, 3, Cyc.rational(2))]
    scaled = HopfAlgebra(h.labels, h.unit, h.mult, comult, h.counit, h.antipode)
    for bad, axiom in ((twisted, "associativity"),
                       (scaled, "comultiplication is not multiplicative")):
        got = kinds(bad.verify())
        assert axiom in got
        assert got == kinds(verify_all_triples(bad))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.sampled_from(sorted(SMALL)),
       st.sampled_from(["mult", "comult", "counit", "antipode"]),
       st.integers(0, 7), st.integers(0, 15), st.integers(0, 7),
       st.sampled_from(SCALARS))
def test_corrupted_tables_get_the_all_basis_verdicts(name, table, i, j, k, c):
    """verify fails exactly when the all-basis form fails, and names the
    same axioms wherever the generator argument applies.  On a table it
    passes, integral and central_idempotents raise exactly when their
    all-basis forms do and agree with them when they do not.  On a table
    it fails they may differ (an integral found at the generators of a
    table whose unit law fails need not be one for all of H); every
    caller stops at verify's witnesses first."""
    hopf, chars = SMALL[name]
    bad = corrupt(hopf, table, i, j, k, c)
    witnesses = bad.verify()
    got, want = kinds(witnesses), kinds(verify_all_triples(bad))
    assert bool(got) == bool(want)
    # the checks over the basis name the same axioms; associativity is
    # decided at the generators once the unit law holds, and the
    # multiplicativity of Δ and ε once associativity and Δ(1) = 1 ⊗ 1 do
    assert got - MULTIPLICATIVE - {"associativity"} == want - MULTIPLICATIVE - {"associativity"}
    if "unit" not in want:
        assert ("associativity" in got) == ("associativity" in want)
        if not want & {"associativity", "comultiplication", "counit"}:
            assert got & MULTIPLICATIVE == want & MULTIPLICATIVE
    # the characters of the intact H, read as value lists on the changed one
    on_bad = SimpleNamespace(chars=[Character(bad, ch.values, ch.label) for ch in chars.chars])
    forms = (outcome(bad.integral), outcome(lambda: central_idempotents(bad, on_bad)))
    oracle_forms = (outcome(lambda: integral_all_basis(bad)),
                    outcome(lambda: central_idempotents_all_basis(bad, on_bad)))
    assert witnesses or forms == oracle_forms


# -- actions with one generator image changed ------------------------------


@pytest.mark.parametrize("name", catalog.shipped())
def test_action_verify_matches_all_pairs(name):
    """The module law checked for b in the generators of H passes where
    the all-pairs form passes, on every shipped preset."""
    action = catalog.build(name, max_degree=4).action
    assert action.verify() == action_verify_all_pairs(action) == []


def test_module_law_is_probed_at_every_generator():
    """kZ2 x Z2, with generators a and b, on k[x]: one of a, b acts as 1
    and the other as 2, so the module law holds for b' in the subalgebra
    the first one spans, and fails only at the second (2·2 != 1 on
    the square of the identity).  verify names it at that generator."""
    klein = Group(["e", "a", "b", "ab"], [[x ^ y for y in range(4)] for x in range(4)])
    h = group_algebra(klein)
    assert h.generators() == [1, 2]
    line = GradedAlgebra(["x"], [], max_degree=2)
    two = Cyc.rational(2)
    for scaled in ("a", "b"):
        images = [[{0: two if scaled in label else ONE}] for label in h.labels]
        bad = HopfAction.from_matrices(h, line, images)
        got, want = bad.verify(), action_verify_all_pairs(bad)
        assert got and set(got) <= set(want)
        assert all(f"*{scaled})" in w for w in got)


# a table, two group and one dual-group action; dim H 8, 4, 6 and 8
ACTIONS = {name: catalog.build(name, max_degree=4).action
           for name in ("e42-kacpalyutkin", "l41-mystic(1,2)",
                        "l41-cyclic-n-m(z3,2,3)", "e22-dualD8")}


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.sampled_from(sorted(ACTIONS)), st.integers(0, 7), st.integers(0, 2),
       st.integers(0, 2), st.sampled_from(SCALARS))
def test_corrupted_action_images_get_the_all_pairs_verdict(name, h, i, k, c):
    """With coordinate k of the image of generator i under basis element h
    changed to c, verify fails exactly when the all-pairs form fails, and
    every witness it names is one the all-pairs form names.  Where the
    unit law and the relations hold, the b that pass the module law form
    a subalgebra, so a failure at some b shows at a generator."""
    base = ACTIONS[name]
    hopf, alg = base.hopf, base.alg
    h, i = h % hopf.dim, i % alg.ngens
    k %= alg.dim(alg.weights[i])
    images = [[dict(v) for v in row] for row in base.gen_images]
    images[h][i].pop(k, None)
    if not c.is_zero():
        images[h][i][k] = c
    bad = HopfAction.from_matrices(hopf, alg, images)
    got, want = bad.verify(), action_verify_all_pairs(bad)
    assert bool(got) == bool(want)
    assert set(got) <= set(want)
