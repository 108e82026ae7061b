"""Component tables, fixed rings, homological determinants, Jacobians and
covariant quotients on the built-in examples.

Expected values are frozen from hand computation; proportionality is used
wherever only the line of an element is pinned down.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncreflect import analysis
from ncreflect.analysis import analyze
from ncreflect.hopf import CharacterGroup, HopfAction, HopfAlgebra, central_idempotents
from ncreflect.invariants import (
    check_component_multiplicativity,
    component_report,
    covariant_data,
    fixed_ring,
    graded_components,
    homological_determinant,
    jacobian_data,
    proportional,
    series_quotient,
)
from ncreflect.linalg import Subspace
from ncreflect.ncalg import left_ideal_slices, right_ideal_slices, two_sided_ideal_slices
from ncreflect.presets import catalog
from ncreflect.scalars import ONE

from oracles import (
    augmentation_module,
    certificate_per_character,
    fraction_series_quotient,
    components_per_character,
    fixed_ring_all_pairs,
    multiplicativity_by_products,
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
        _CACHE[key] = (p, comp, fixed, hdet)
    return _CACHE[key]


def cidx(p, label: str) -> int:
    return p.chars.group.labels.index(label)


# ---------------------------------------------------------------------------
# skew plane under the eight-dimensional Hopf algebra


def test_kac_component_generators():
    p, comp, fixed, _ = bundle("e42-kacpalyutkin")
    alg = p.algebra
    assert comp.f[cidx(p, "eps")] == alg.element("1", 0)
    assert comp.f[cidx(p, "g")] == alg.element("u^2 - v^2")
    assert comp.f[cidx(p, "gp")] == alg.element("u*v")
    assert comp.f[cidx(p, "ggp")] == alg.element("u^3*v + u*v^3")
    assert all(ok is True for ok in comp.freeness), comp.freeness_failures


def test_kac_component_multiplicativity():
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    assert check_component_multiplicativity(p.action, p.chars, comp.slices, 6,
                                            projectors) == []


def test_component_multiplicativity_failure_is_reported():
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    swapped = list(comp.slices)
    eps, g = cidx(p, "eps"), cidx(p, "g")
    swapped[eps], swapped[g] = swapped[g], swapped[eps]
    # the slot of eps holds A_g, which has no degree-0 part
    assert check_component_multiplicativity(p.action, p.chars, swapped, 6, projectors) == [
        "A_eps in degree 0 has dimension 0, its projector trace 1"]
    # A_g * A_g lands in A_eps, not in the slot now holding A_g
    assert "A_eps * A_eps leaves A_eps in degree 4" in multiplicativity_by_products(
        p.action, p.chars, swapped, 6)


@pytest.mark.parametrize("name", catalog.shipped())
def test_component_grading_certificate_holds_on_every_preset(name):
    """The certificate passes exactly where forming every product finds
    no witness."""
    p, comp, _, _ = bundle(name)
    projectors = central_idempotents(p.hopf, p.chars)
    assert check_component_multiplicativity(p.action, p.chars, comp.slices, 8, projectors) == []
    assert multiplicativity_by_products(p.action, p.chars, comp.slices, 8) == []


def _with_slice(comps, i, d, space):
    out = [list(row) for row in comps]
    out[i][d] = space
    return out


def test_certificate_refuses_a_proper_subspace_of_an_eigenspace():
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    eps = cidx(p, "eps")
    full = comp.slices[eps][4]
    assert full.dim == 2
    bad = _with_slice(comp.slices, eps, 4, Subspace.span(full.ambient, full.basis()[:1]))
    # (a) holds, (b) does not
    assert check_component_multiplicativity(p.action, p.chars, bad, 6, projectors) == [
        "A_eps in degree 4 has dimension 1, its projector trace 2"]
    witnesses = multiplicativity_by_products(p.action, p.chars, bad, 6)
    assert "A_g * A_g leaves A_eps in degree 4" in witnesses


def test_certificate_refuses_a_vector_of_another_component():
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    g, gp = cidx(p, "g"), cidx(p, "gp")
    assert comp.slices[g][4].dim == comp.slices[gp][4].dim == 1
    bad = _with_slice(comp.slices, g, 4, comp.slices[gp][4])
    # the dimensions still match the projector traces, (a) fails
    assert check_component_multiplicativity(p.action, p.chars, bad, 6, projectors) == [
        "A_g in degree 4 leaves its eigenspace"]
    witnesses = multiplicativity_by_products(p.action, p.chars, bad, 6)
    assert "A_g * A_eps leaves A_g in degree 4" in witnesses


def _traded(comps, i, j, d):
    """Slot i of degree d loses its last basis vector to slot j: the two
    slices trade a dimension, so the slice dimensions keep their sum."""
    basis = comps[i][d].basis()
    out = _with_slice(comps, i, d, Subspace.span(comps[i][d].ambient, basis[:-1]))
    out[j][d] = Subspace.span(comps[j][d].ambient, comps[j][d].basis() + basis[-1:])
    return out


def test_traded_dimensions_are_caught_by_containment():
    """Two slices that trade a dimension keep the sum of the dimensions, so
    the one trace of Σ p_i agrees; (a) catches the slice that took a
    vector of another eigenspace, and the reason names the first slice
    that fails, as the trace per character does."""
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    eps, g = cidx(p, "eps"), cidx(p, "g")
    bad = _traded(comp.slices, eps, g, 4)
    assert sum(s[4].dim for s in bad) == sum(s[4].dim for s in comp.slices)
    reason = ["A_eps in degree 4 has dimension 1, its projector trace 2"]
    assert check_component_multiplicativity(p.action, p.chars, bad, 6, projectors) == reason
    assert certificate_per_character(p.action, p.chars, bad, 6, projectors) == reason
    grown = _with_slice(comp.slices, g, 4, bad[g][4])
    assert check_component_multiplicativity(p.action, p.chars, grown, 6, projectors) == [
        "A_g in degree 4 leaves its eigenspace"]


def test_one_trace_matches_the_trace_per_character_on_corrupted_slices():
    """The corrupted slices of the tests above, and a traded dimension:
    the same verdict and the same reason as tracing each p_i."""
    p, comp, _, _ = bundle("e42-kacpalyutkin")
    projectors = central_idempotents(p.hopf, p.chars)
    eps, g, gp = cidx(p, "eps"), cidx(p, "g"), cidx(p, "gp")
    swapped = list(comp.slices)
    swapped[eps], swapped[g] = swapped[g], swapped[eps]
    full = comp.slices[eps][4]
    cases = [swapped,
             _with_slice(comp.slices, eps, 4, Subspace.span(full.ambient, full.basis()[:1])),
             _with_slice(comp.slices, g, 4, comp.slices[gp][4]),
             _traded(comp.slices, eps, g, 4),
             _traded(comp.slices, g, eps, 4)]
    for bad in cases:
        got = check_component_multiplicativity(p.action, p.chars, bad, 6, projectors)
        assert got and got == certificate_per_character(p.action, p.chars, bad, 6, projectors)


@pytest.mark.parametrize("name", catalog.shipped())
def test_one_trace_matches_the_trace_per_character_on_every_preset(name):
    """At D = 12 on every shipped preset: both pass on the components, and
    in every degree a shrunk slice and a traded dimension get the same
    reason from both."""
    D = 12
    p = catalog.build(name, max_degree=D)
    comps = graded_components(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    assert check_component_multiplicativity(p.action, p.chars, comps, D, projectors) == []
    assert certificate_per_character(p.action, p.chars, comps, D, projectors) == []
    n = len(p.chars.chars)
    for d in range(D + 1):
        i = next((i for i in range(n) if comps[i][d].dim), None)
        if i is None:
            continue
        space = comps[i][d]
        cases = [_with_slice(comps, i, d, Subspace.span(space.ambient, space.basis()[:-1]))]
        if n > 1:
            cases.append(_traded(comps, i, (i + 1) % n, d))
        for bad in cases:
            got = check_component_multiplicativity(p.action, p.chars, bad, D, projectors)
            assert got and got == certificate_per_character(p.action, p.chars, bad, D,
                                                            projectors)


@pytest.mark.parametrize("name", ["e22-dualD8", "e23-downup-dualD8"])
def test_certificate_holds_on_dual_group_presets_at_every_bound(name):
    """analyze skips the certificate on a dual-group action; it stays the
    oracle of that skip."""
    p = catalog.build(name, max_degree=12)
    projectors = central_idempotents(p.hopf, p.chars)
    for D in range(13):
        comps = graded_components(p.action, p.chars, D)
        assert check_component_multiplicativity(p.action, p.chars, comps, D,
                                                projectors) == [], D


def test_dual_group_characters_must_be_the_evaluations_in_group_order():
    """graded_components and the skip of the certificate both read
    character i as evaluation at group element i; a bundle whose
    characters are in another order is refused."""
    p = catalog.build("e22-dualD8", max_degree=4)
    permuted = CharacterGroup(p.hopf, p.chars.chars[::-1])
    with pytest.raises(AssertionError, match="not the evaluations in group order"):
        dataclasses.replace(p, chars=permuted)


@pytest.mark.parametrize("name", catalog.shipped())
def test_analyze_derives_what_a_group_table_implies(name, monkeypatch):
    """analyze calls verify on every H; the base body of verify runs only
    on an H that is not kG or k^G, and the certificate only on an action
    that is not dual-group; the two checks read pass with no detail
    either way.  On a dual-group action of k^G neither the module law of
    the action check nor the projectors ask for the generators of H,
    whose products they would form; on a group action of kG the module
    law does not, and the projectors ask once, for the Cayley edges their
    homomorphism test walks."""
    calls = {"verify": 0, "base verify": 0, "certificate": 0, "module-law": 0,
             "projectors": 0}
    inside = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def scoped(key, fn):
        def wrapper(*args, **kwargs):
            inside.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    generators = HopfAlgebra.generators

    def generators_in_scope(self):
        if inside:
            calls[inside[-1]] += 1
        return generators(self)

    p = catalog.build(name, max_degree=6)
    kind = type(p.hopf)
    monkeypatch.setattr(HopfAlgebra, "verify", counted("base verify", HopfAlgebra.verify))
    if kind is not HopfAlgebra:
        monkeypatch.setattr(kind, "verify", counted("verify", kind.verify))
    monkeypatch.setattr(analysis, "check_component_multiplicativity",
                        counted("certificate", check_component_multiplicativity))
    monkeypatch.setattr(HopfAlgebra, "generators", generators_in_scope)
    monkeypatch.setattr(HopfAction, "verify", scoped("module-law", HopfAction.verify))
    monkeypatch.setattr(analysis, "central_idempotents",
                        scoped("projectors", central_idempotents))
    result = analyze(p)
    full = int(p.action.kind != "dual_group")
    plain = int(p.action.kind == "matrices")
    assert calls == {"verify": 1 - plain, "base verify": plain, "certificate": full,
                     "module-law": plain, "projectors": full}
    checks = {c.name: (c.status, c.detail) for c in result.checks}
    assert checks["hopf-axioms"] == checks["component-multiplicativity"] == ("pass", "")


def test_kac_fixed_ring():
    _, _, fixed, _ = bundle("e42-kacpalyutkin")
    assert fixed.dims == [1, 0, 1, 0, 2, 0, 2, 0, 3]
    assert fixed.gen_degrees == [2, 4]
    assert fixed.polynomial
    assert fixed.commutative


def test_kac_hdet_routes_agree():
    p, _, _, hdet = bundle("e42-kacpalyutkin")
    assert p.chars.group.labels[hdet.char_index] == "ggp"
    assert set(hdet.routes) == {"koszul", "hilbert"}
    assert hdet.koszul_top == 2
    assert hdet.koszul_dims == [1, 0]


def test_kac_jacobian_and_discriminant():
    p, comp, fixed, hdet = bundle("e42-kacpalyutkin")
    alg = p.algebra
    jd = jacobian_data(alg, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, alg.element("u*v*(u^2 - v^2)"))
    assert jd.a == jd.j  # the determinant is an involution here
    assert proportional(jd.delta_left, alg.element("u^2*v^2*(u^2 - v^2)^2"))
    assert jd.deltas_proportional
    assert jd.delta_in_fixed_ring
    assert jd.a_divides_j_left and jd.a_divides_j_right


def test_kac_xi_and_covariants():
    p, _, fixed, _ = bundle("e42-kacpalyutkin")
    xi = series_quotient(p.algebra.hilbert(8), fixed.dims, 8)
    assert xi == [1, 2, 2, 2, 1, 0, 0, 0, 0]  # (1+t)(1+t+t^2+t^3)
    cov = covariant_data(p.algebra, fixed, 8)
    assert cov.algebra_dims == [1, 2, 2, 0, 0, 0, 0, 0, 0]
    assert cov.tepid is False
    assert cov.frobenius == "no"  # top slice is two-dimensional


# ---------------------------------------------------------------------------
# dihedral-graded three-generator algebra


def test_dihedral3_component_generators():
    p, comp, _, _ = bundle("e22-dualD8")
    alg = p.algebra
    f = comp.f
    assert f[cidx(p, "r")] == alg.element("x")
    assert f[cidx(p, "rp")] == alg.element("y")
    assert f[cidx(p, "rp2")] == alg.element("z")
    assert proportional(f[cidx(p, "p")], alg.element("x*y"))
    assert proportional(f[cidx(p, "p2")], alg.element("x*z"))
    assert proportional(f[cidx(p, "p3")], alg.element("y*x"))
    assert proportional(f[cidx(p, "rp3")], alg.element("z*x*y"))
    assert all(ok is True for ok in comp.freeness), comp.freeness_failures


def test_dihedral3_component_multiplicativity():
    p, comp, _, _ = bundle("e22-dualD8")
    projectors = central_idempotents(p.hopf, p.chars)
    assert check_component_multiplicativity(p.action, p.chars, comp.slices, 5,
                                            projectors) == []


def test_dihedral3_fixed_ring_and_xi():
    p, _, fixed, _ = bundle("e22-dualD8")
    assert fixed.gen_degrees == [2, 2, 2]
    assert fixed.polynomial
    assert fixed.commutative
    xi = series_quotient(p.algebra.hilbert(8), fixed.dims, 8)
    assert xi == [1, 3, 3, 1, 0, 0, 0, 0, 0]  # (1+t)^3


def test_dihedral3_hdet_and_jacobian():
    p, comp, fixed, hdet = bundle("e22-dualD8")
    alg = p.algebra
    assert p.chars.group.labels[hdet.char_index] == "rp3"
    assert set(hdet.routes) == {"koszul", "hilbert"}
    assert hdet.koszul_top == 3
    assert hdet.koszul_dims == [3, 1, 0]
    jd = jacobian_data(alg, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, alg.element("z*x*y"))
    assert jd.a == jd.j
    assert proportional(jd.delta_left, alg.element("x^2*y^2*z^2"))
    assert jd.deltas_proportional and jd.delta_in_fixed_ring


def test_dihedral3_covariants_tepid_and_frobenius():
    p, _, fixed, _ = bundle("e22-dualD8")
    cov = covariant_data(p.algebra, fixed, 8)
    assert cov.algebra_dims == [1, 3, 3, 1, 0, 0, 0, 0, 0]
    assert cov.tepid is True
    assert cov.frobenius == "yes"


# ---------------------------------------------------------------------------
# dihedral-graded down-up algebra (fixed ring not polynomial)


def test_downup_undefined_component_generator():
    p, comp, _, _ = bundle("e23-downup-dualD8")
    i = cidx(p, "p3")
    assert comp.f[i] is None
    assert "dimension 2" in comp.f_reasons[i]


def test_downup_fixed_ring_not_polynomial():
    _, _, fixed, _ = bundle("e23-downup-dualD8")
    assert fixed.dims[:5] == [1, 0, 1, 0, 4]
    assert fixed.gen_degrees[:4] == [2, 4, 4, 4]
    assert not fixed.polynomial


def test_downup_hdet_koszul_only():
    p, comp, fixed, hdet = bundle("e23-downup-dualD8")
    assert p.chars.group.labels[hdet.char_index] == "p2"
    assert set(hdet.routes) == {"koszul"}
    assert hdet.koszul_top == 4
    assert hdet.koszul_dims == [2, 1, 0]
    assert any("hilbert" in n for n in hdet.notes)
    jd = jacobian_data(p.algebra, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, p.algebra.element("u^2"))
    assert proportional(jd.delta_left, p.algebra.element("u^4"))
    assert jd.delta_in_fixed_ring


# ---------------------------------------------------------------------------
# scaling and mystic families


def test_cyclic_scaling_family():
    name = "l41-cyclic-n-m(z3,2,3)"
    p, comp, fixed, hdet = bundle(name)
    alg = p.algebra
    assert fixed.gen_degrees == [2, 3]
    assert fixed.polynomial
    assert set(hdet.routes) == {"koszul", "hilbert"}
    jd = jacobian_data(alg, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, alg.element("x*y^2"))
    assert proportional(jd.a, alg.element("x*y"))
    assert jd.a != jd.j  # the determinant has order 3 > 2 here
    assert jd.a_divides_j_left and jd.a_divides_j_right
    assert proportional(jd.delta_left, alg.element("x^2*y^3"))
    assert jd.deltas_proportional and jd.delta_in_fixed_ring
    cov = covariant_data(alg, fixed, 8)
    assert cov.algebra_dims == [1, 2, 2, 1, 0, 0, 0, 0, 0]
    assert cov.tepid is True
    assert cov.frobenius == "yes"


def test_mystic_small():
    p, comp, fixed, hdet = bundle("l41-mystic(1,2)")
    alg = p.algebra
    assert fixed.gen_degrees == [2, 2]
    jd = jacobian_data(alg, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, alg.element("x^2 - y^2"))
    assert jd.a == jd.j
    assert proportional(jd.delta_left, alg.element("x^4 - 2*x^2*y^2 + y^4"))


def test_mystic_order_sixteen():
    p, comp, fixed, hdet = bundle("l41-mystic(2,4)", D=12)
    alg = p.algebra
    assert fixed.gen_degrees == [4, 4]
    assert fixed.polynomial
    jd = jacobian_data(alg, p.chars, comp, fixed, hdet.char_index)
    assert proportional(jd.j, alg.element("x*y*(x^4 - y^4)"))
    assert jd.a == jd.j
    assert jd.deltas_proportional and jd.delta_in_fixed_ring


def test_trivial_preset_degenerate_values():
    p, comp, fixed, hdet = bundle("trivial")
    assert fixed.gen_degrees == [1, 1]
    assert hdet.char_index == p.chars.group.identity
    jd = jacobian_data(p.algebra, p.chars, comp, fixed, hdet.char_index)
    assert jd.j.degree == 0 and jd.delta_left.degree == 0
    xi = series_quotient(p.algebra.hilbert(8), fixed.dims, 8)
    assert xi == [1] + [0] * 8
    cov = covariant_data(p.algebra, fixed, 8)
    assert cov.algebra_dims == [1] + [0] * 8
    assert cov.frobenius == "yes"


def test_supplied_hdet_mismatch_raises():
    p, comp, fixed, _ = bundle("e42-kacpalyutkin")
    wrong = cidx(p, "g")
    with pytest.raises(ValueError, match="supplied homological determinant"):
        homological_determinant(p.action, p.chars, comp, fixed, 8, supplied=wrong)


# ---------------------------------------------------------------------------
# covariant ideals against the slice-by-slice augmentation recursion


@pytest.mark.parametrize("name", catalog.shipped())
def test_covariant_ideals_match_augmentation_module(name):
    p, _, fixed, _ = bundle(name)
    alg = p.algebra
    left = augmentation_module(alg, fixed.slices, 8, "left")
    right = augmentation_module(alg, fixed.slices, 8, "right")
    assert left_ideal_slices(alg, fixed.gens, 8) == left
    assert right_ideal_slices(alg, fixed.gens, 8) == right
    cov = covariant_data(alg, fixed, 8)
    assert cov.left_dims == [alg.dim(d) - left[d].dim for d in range(9)]
    assert cov.right_dims == [alg.dim(d) - right[d].dim for d in range(9)]
    assert cov.tepid == all(left[d] == right[d] for d in range(9))
    # A R_+ = R_+ A gives (R_+) = A R_+, so a tepid R_+ takes the left
    # ideal for the covariant algebra; e42 is the one preset that is not
    # tepid, and there the two ideals differ
    two = two_sided_ideal_slices(alg, fixed.gens, 8)
    assert cov.algebra_dims == [alg.dim(d) - two[d].dim for d in range(9)]
    assert (left == two) is cov.tepid
    assert cov.tepid is (name != "e42-kacpalyutkin")


@pytest.mark.parametrize("name", catalog.shipped())
def test_fixed_ring_generators_match_all_pairs_oracle(name):
    # (R_+)^2 spanned at the generators picks the same generators as the
    # span of every product R_e R_{d-e}
    p, _, fixed, _ = bundle(name, 12)
    assert (fixed.gen_degrees, fixed.gens) == fixed_ring_all_pairs(p.algebra, fixed.slices, 12)


@pytest.mark.parametrize("name", catalog.shipped())
def test_fixed_ring_is_the_image_of_the_integral(name):
    # R_d = Λ · A_d: the fixed ring read off the trivial component equals
    # the image of the integral's projection in every degree
    p, _, fixed, _ = bundle(name)
    lam = p.hopf.integral()
    for d in range(9):
        dim = p.algebra.dim(d)
        image = Subspace.span(dim, [p.action.act(lam, {k: ONE}, d) for k in range(dim)])
        assert image == fixed.slices[d], d


@pytest.mark.parametrize("name", catalog.shipped())
def test_components_refined_probe_by_probe_match_one_elimination_per_character(name):
    """Refining the joint eigenspaces one probe at a time gives the slices
    that eliminating the rows of every probe once per character gives."""
    D = 12
    p = catalog.build(name, max_degree=D)
    assert graded_components(p.action, p.chars, D) == components_per_character(p.action, p.chars, D)


def test_free_slice_index_is_lexicographic():
    """The words of one length in lexicographic order, each at its index,
    as the Koszul route reads them."""
    from ncreflect.invariants import _free_slice_index

    def words(ngens, length):
        if length == 0:
            return [()]
        return [(i,) + w for i in range(ngens) for w in words(ngens, length - 1)]

    for ngens, length in ((1, 0), (2, 0), (2, 3), (3, 2), (3, 4)):
        got, index = _free_slice_index(ngens, length)
        assert got == words(ngens, length) == sorted(got)
        assert all(index[w] == n for n, w in enumerate(got))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(st.integers(-9, 9), max_size=8),
       st.sampled_from([1, 2, -3]), st.lists(st.integers(-4, 4), max_size=6),
       st.integers(0, 10))
def test_series_quotient_matches_fraction_division(num, lead, tail, D):
    """In int when the divisor starts with 1, by Fractions otherwise: the
    same Fractions as dividing with every coefficient a Fraction."""
    den = [lead, *tail]
    got = series_quotient(num, den, D)
    assert got == fraction_series_quotient(num, den, D)
    assert all(type(x) is Fraction for x in got)
