"""Cocycles, Frobenius pairing, trace discriminant, Nakayama verification,
Steinberg factorisation, isotypic series and Jacobian transfer on the
built-in examples."""

from __future__ import annotations

import pytest

from ncreflect.hopf import central_idempotents
from ncreflect.invariants import (
    check_component_multiplicativity,
    component_report,
    fixed_ring,
    homological_determinant,
    jacobian_data,
    proportional,
)
from ncreflect.linalg import Subspace, vec_addto
from ncreflect.ncalg import Elem, GradedAlgebra, is_normal
from ncreflect.presets import catalog
from ncreflect.scalars import Cyc, ONE, zeta
from ncreflect.smash import dual_group_shortcut, principal_radical, radical_slices
from ncreflect.structure import (
    AlgebraEndo,
    cocycle_table,
    frobenius_pairing,
    isotypic_series,
    jacobian_transfer,
    nakayama_check,
    steinberg_factorization,
    tp_det,
    tp_divide,
    tp_mul,
    tp_proportional,
    trace_discriminant,
)

from oracles import (
    isotypic_images,
    kac_palyutkin_idempotents,
    normal_in_every_degree,
    transfer_by_products,
)

_CACHE: dict = {}


def bundle(name: str, D: int = 8):
    key = (name, D)
    if key not in _CACHE:
        p = catalog.build(name, max_degree=D)
        comp = component_report(p.action, p.chars, D)
        fixed = fixed_ring(p.action, p.chars, comp.slices, D)
        supplied = p.options.get("hdet")
        sup_idx = p.chars.group.labels.index(supplied) if supplied else None
        hdet = homological_determinant(p.action, p.chars, comp, fixed, D, supplied=sup_idx)
        jac = jacobian_data(p.algebra, p.chars, comp, fixed, hdet.char_index)
        coc = cocycle_table(p.algebra, p.chars, comp, fixed, D)
        _CACHE[key] = (p, comp, fixed, hdet, jac, coc)
    return _CACHE[key]


def cidx(p, label: str) -> int:
    return p.chars.group.labels.index(label)


# ---------------------------------------------------------------------------
# the abstract polynomial model


def test_tpoly_arithmetic():
    x = {(1, 0): ONE}
    y = {(0, 1): ONE}
    p = tp_mul(x, y)
    assert p == {(1, 1): ONE}
    assert tp_divide(p, x) == y
    assert tp_divide(x, p) is None
    diff = {(2, 0): ONE, (0, 2): -ONE}  # x^2 - y^2
    quot = tp_divide(diff, {(1, 0): ONE, (0, 1): ONE})
    assert quot == {(1, 0): ONE, (0, 1): -ONE}
    assert tp_proportional(diff, {(2, 0): Cyc.rational(3), (0, 2): Cyc.rational(-3)})
    assert not tp_proportional(diff, {(2, 0): ONE, (0, 2): ONE})


def test_tpoly_determinant():
    x = {(1,): ONE}
    det = tp_det([[x, {(0,): ONE}], [{(0,): ONE}, x]], 1)
    assert det == {(2,): ONE, (0,): -ONE}
    anti = tp_det([[None, x], [x, None]], 1)
    assert anti == {(2,): -ONE}


# ---------------------------------------------------------------------------
# cocycles


def test_kac_cocycles():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    alg = p.algebra
    assert coc.complete
    assert coc.normal
    gp = cidx(p, "gp")
    # f_gp^2 = uv uv = i u^2 v^2 lands in the trivial component
    assert coc.table[gp][gp] == alg.element("u^2*v^2").scale(zeta(4))
    e = cidx(p, "eps")
    assert coc.table[e][e] == alg.element("1", 0)
    # c is the product itself whenever the target generator is 1
    g = cidx(p, "g")
    assert coc.table[g][g] == comp.f[g] * comp.f[g]


def test_dihedral3_cocycles_normal():
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    assert coc.complete
    assert coc.normal
    r, rp = cidx(p, "r"), cidx(p, "rp")
    prod = comp.f[r] * comp.f[rp]
    target = comp.f[p.chars.group.table[r][rp]]
    c = coc.table[r][rp]
    assert (c * target) == prod


def test_downup_cocycles_incomplete():
    p, comp, fixed, hdet, jac, coc = bundle("e23-downup-dualD8")
    assert not coc.complete  # f_{p3} does not exist


# ---------------------------------------------------------------------------
# Frobenius pairing


def test_kac_frobenius_scalars():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    frob = frobenius_pairing(p.algebra, p.chars, comp, hdet.char_index)
    assert frob.verdict == "yes"
    assert frob.identity_holds
    want = {"eps": ONE, "g": -ONE, "gp": ONE, "ggp": ONE}
    for label, value in want.items():
        assert frob.scalars[cidx(p, label)] == value


def test_dihedral3_frobenius():
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    frob = frobenius_pairing(p.algebra, p.chars, comp, hdet.char_index)
    assert frob.verdict == "yes"
    assert all(s is not None and not s.is_zero() for s in frob.scalars)


def test_cyclic_frobenius():
    p, comp, fixed, hdet, jac, coc = bundle("l41-cyclic-n-m(z3,2,3)")
    frob = frobenius_pairing(p.algebra, p.chars, comp, hdet.char_index)
    assert frob.verdict == "yes"


def test_downup_frobenius_undetermined():
    p, comp, fixed, hdet, jac, coc = bundle("e23-downup-dualD8")
    frob = frobenius_pairing(p.algebra, p.chars, comp, hdet.char_index)
    assert frob.verdict == "undetermined"


# ---------------------------------------------------------------------------
# trace discriminant


def test_dihedral3_trace_discriminant():
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    data = trace_discriminant(p.action, p.chars, comp, fixed, coc, jac.delta_left, 8)
    assert data.applicable, data.precondition_notes
    assert len(data.generator_names) == 3
    assert tp_proportional(data.discriminant, {(4, 4, 4): ONE})
    assert data.is_product_of_pair_products
    assert data.delta_divides
    assert data.divides_delta_power
    assert data.verdict == "radical-equal"


def test_kac_trace_discriminant_not_applicable():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    data = trace_discriminant(p.action, p.chars, comp, fixed, coc, jac.delta_left, 8)
    assert not data.applicable
    assert any("dual group" in note for note in data.precondition_notes)
    assert data.verdict == "not-computable"


def test_cyclic_trace_discriminant_not_applicable():
    p, comp, fixed, hdet, jac, coc = bundle("l41-cyclic-n-m(z3,2,3)")
    data = trace_discriminant(p.action, p.chars, comp, fixed, coc, jac.delta_left, 8)
    assert not data.applicable


# ---------------------------------------------------------------------------
# Nakayama verification


def test_kac_nakayama():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    data = nakayama_check(
        p.action, p.chars, fixed, hdet.char_index, jac.j, jac.a,
        p.options["nakayama"], 8, hdet.koszul_top,
    )
    assert data.is_automorphism
    assert data.twisted_action_identity, data.failures
    assert data.fixes_fixed_ring
    assert data.scales_jacobian
    assert data.scales_arrangement
    assert data.induced_is_identity
    assert data.index_additive
    assert data.failures == []


def test_kac_nakayama_wrong_candidate():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    wrong = [{0: zeta(4)}, {1: zeta(4)}]  # u -> i u, v -> i v
    data = nakayama_check(
        p.action, p.chars, fixed, hdet.char_index, jac.j, jac.a,
        wrong, 8, hdet.koszul_top,
    )
    assert data.is_automorphism  # it does extend to an automorphism ...
    assert not data.twisted_action_identity  # ... but the twist is wrong


def test_algebra_endo_respects_relations():
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    alg = p.algebra
    swap = AlgebraEndo(alg, [alg.element("y").vec, alg.element("x").vec,
                             alg.element("z").vec])
    assert not swap.respects_relations()


# ---------------------------------------------------------------------------
# Steinberg factorisation


def test_dihedral3_steinberg():
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    got = steinberg_factorization(p.algebra, p.chars, comp, jac.j, hdet.char_index)
    assert got.verdict == "yes"
    assert got.labels == ["r", "rp", "r"]
    prod = comp.f[cidx(p, "r")] * comp.f[cidx(p, "rp")] * comp.f[cidx(p, "r")]
    assert prod.scale(got.scalar) == jac.j


def test_downup_steinberg():
    p, comp, fixed, hdet, jac, coc = bundle("e23-downup-dualD8")
    got = steinberg_factorization(p.algebra, p.chars, comp, jac.j, hdet.char_index)
    assert got.verdict == "yes"
    assert got.labels == ["p", "p"]
    assert got.scalar == ONE


def test_kac_steinberg_undetermined():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    got = steinberg_factorization(p.algebra, p.chars, comp, jac.j, hdet.char_index)
    assert got.verdict == "undetermined"
    assert "degree-one" in got.reason


# ---------------------------------------------------------------------------
# normality in the generator degrees


@pytest.mark.parametrize("name", catalog.shipped())
def test_generator_degree_normality_matches_every_degree(name):
    """Comparing x S_g with S_g x in the generator degrees g of S decides
    normality in every degree: on every cocycle in the fixed ring, and on
    the Jacobian, the radical generator and the words of degree 1 and 2
    in A, the verdict is that of the comparison in every degree."""
    D = 12
    p, comp, fixed, hdet, jac, coc = bundle(name, D)
    alg = p.algebra
    cocycles = [c for row in coc.table for c in row if c is not None and c.degree > 0]
    verdicts = []
    for c in cocycles:
        got = is_normal(alg, c, fixed.slices, fixed.gen_degrees, D)
        assert got == normal_in_every_degree(alg, c, fixed.slices, D), c
        verdicts.append(got)
    if p.action.kind == "dual_group":
        radical = dual_group_shortcut(alg, comp.slices, D)
    else:
        radical = radical_slices(p.action, D, central_idempotents(p.hopf, p.chars)).slices
    in_a = [jac.j, principal_radical(alg, radical, D).generator]
    in_a += [Elem(alg, d, {k: ONE}) for d in (1, 2) for k in range(alg.dim(d))]
    whole = [alg.slice_space(d) for d in range(D + 1)]
    for x in in_a:
        if x is not None and x.degree > 0:
            got = is_normal(alg, x, whole, set(alg.weights), D)
            assert got == normal_in_every_degree(alg, x, whole, D), x
            verdicts.append(got)
    assert True in verdicts
    if name == "e42-kacpalyutkin":  # its report: the Jacobian is not normal
        assert not is_normal(alg, jac.j, whole, set(alg.weights), D)


# ---------------------------------------------------------------------------
# isotypic series and transfer


def assert_isotypic_matches_images(p, comp, fixed, D, idempotents):
    iso = isotypic_series(p.action, p.chars, comp, fixed, D, idempotents=idempotents)
    matches, grouplike = isotypic_images(p.action, comp.slices, idempotents, D)
    assert iso.idempotent_images_match_components == matches
    assert iso.grouplike_slices == grouplike
    return matches


@pytest.mark.parametrize("name", catalog.shipped())
def test_isotypic_trace_path_matches_image_spans(name):
    """The series read off the components (no idempotents given) is the
    span of the verified projectors applied to every basis word.  Declared
    idempotents, right or wrong, give the same series as the image spans.
    Each wrong list is wrong in its own way: the unit of H is idempotent
    and fixes every component but has the wrong image; two projectors
    p_j, p_k whose components have the same dimensions, swapped, move the
    components; p_i + p_j - p_k fixes A_{chi_i} but is not idempotent."""
    D = 12
    p, comp, fixed, hdet, jac, coc = bundle(name, D)
    projectors = central_idempotents(p.hopf, p.chars)
    iso = isotypic_series(p.action, p.chars, comp, fixed, D)
    matches, grouplike = isotypic_images(p.action, comp.slices, projectors, D)
    assert matches and iso.idempotent_images_match_components
    assert iso.grouplike_slices == grouplike
    assert assert_isotypic_matches_images(p, comp, fixed, D, projectors)
    n = len(projectors)
    dims = [[s.dim for s in comp.slices[i]] for i in range(n)]
    wrong = [[dict(p.hopf.unit)] * n, projectors[::-1]]
    pair = next(((j, k) for j in range(n) for k in range(j + 1, n) if dims[j] == dims[k]), None)
    if pair is not None:
        j, k = pair
        swapped = list(projectors)
        swapped[j], swapped[k] = projectors[k], projectors[j]
        shifted = [dict(q) for q in projectors]
        for i, q in enumerate(shifted):
            if i not in pair:
                vec_addto(q, projectors[j])
                vec_addto(q, projectors[k], -ONE)
        wrong += [swapped, shifted]
    for idempotents in wrong:
        if idempotents != projectors:
            assert not assert_isotypic_matches_images(p, comp, fixed, D, idempotents)


def test_kac_isotypic_series():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    iso = isotypic_series(p.action, p.chars, comp, fixed, 8)
    assert iso.idempotent_images_match_components
    even = [p.algebra.dim(d) if d % 2 == 0 else 0 for d in range(9)]
    assert iso.grouplike_dims == even
    assert iso.complement_dims == [p.algebra.dim(d) - even[d] for d in range(9)]
    assert iso.grouplike_rank == 4
    assert iso.complement_rank == 4


def test_kac_isotypic_with_closed_form_idempotents():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin", 12)
    assert assert_isotypic_matches_images(p, comp, fixed, 12, kac_palyutkin_idempotents())


def test_cyclic_isotypic_series():
    p, comp, fixed, hdet, jac, coc = bundle("l41-cyclic-n-m(z3,2,3)")
    iso = isotypic_series(p.action, p.chars, comp, fixed, 8)
    assert iso.idempotent_images_match_components
    assert iso.grouplike_dims == [p.algebra.dim(d) for d in range(9)]
    assert iso.complement_dims == [0] * 9
    assert iso.grouplike_rank == 6
    assert iso.complement_rank == 0


def test_kac_jacobian_transfer():
    p, comp, fixed, hdet, jac, coc = bundle("e42-kacpalyutkin")
    tr = jacobian_transfer(p.chars, comp, fixed, jac.j, 8)
    assert [int(c) for c in tr.xi_prime] == [1, 0, 2, 0, 1, 0, 0, 0, 0]
    assert tr.hdet_prime_index == cidx(p, "ggp")
    assert tr.jacobians_proportional


def test_cyclic_jacobian_transfer():
    p, comp, fixed, hdet, jac, coc = bundle("l41-cyclic-n-m(z3,2,3)")
    tr = jacobian_transfer(p.chars, comp, fixed, jac.j, 8)
    assert tr.jacobians_proportional


@pytest.mark.parametrize("name", catalog.shipped())
def test_transfer_matches_products_oracle(name):
    """The transfer read off the components agrees, field by field, with
    the one worked out from every product of the grouplike slices, each
    component intersected with them and its minimal generator found anew.
    The closure the oracle finds is the certified grading."""
    D = 12
    p, comp, fixed, hdet, jac, coc = bundle(name, D)
    projectors = central_idempotents(p.hopf, p.chars)
    _, grouplike = isotypic_images(p.action, comp.slices, projectors, D)
    closed, xi, hdet_prime, j_prime, prop = transfer_by_products(
        p.algebra, p.chars, comp.slices, fixed.dims, grouplike, jac.j, D)
    assert closed is True
    assert check_component_multiplicativity(p.action, p.chars, comp.slices, D,
                                            projectors) == []
    tr = jacobian_transfer(p.chars, comp, fixed, jac.j, D)
    assert tr.xi_prime == xi
    assert tr.hdet_prime_index == hdet_prime
    assert tr.j_prime == j_prime
    assert tr.jacobians_proportional == prop


def test_transfer_forms_no_product_and_no_intersection(monkeypatch):
    p, comp, fixed, hdet, jac, coc = bundle("e22-dualD8")
    expected = transfer_by_products(
        p.algebra, p.chars, comp.slices, fixed.dims,
        isotypic_images(p.action, comp.slices, central_idempotents(p.hopf, p.chars), 8)[1],
        jac.j, 8)

    def refuse(*args):
        raise AssertionError("the transfer formed a product or an intersection")

    monkeypatch.setattr(GradedAlgebra, "mul", refuse)
    monkeypatch.setattr(Subspace, "intersect", refuse)
    tr = jacobian_transfer(p.chars, comp, fixed, jac.j, 8)
    got = (True, tr.xi_prime, tr.hdet_prime_index, tr.j_prime, tr.jacobians_proportional)
    assert got == expected
    assert tr.jacobians_proportional is True
