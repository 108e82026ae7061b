"""Smash-product multiplication, the pertinency ideal and its trace on A,
the dual-group shortcut, rife checks, the dis-radical, and the search for
a principal radical generator."""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest

from ncreflect.hopf import (
    Character,
    CharacterGroup,
    Group,
    central_idempotents,
    commutator_ideal,
    dual_group_algebra,
    dual_group_characters,
    group_algebra,
    group_linear_characters,
)
from ncreflect.invariants import (
    component_report,
    fixed_ring,
    homological_determinant,
    jacobian_data,
    proportional,
)
from ncreflect.linalg import Subspace, express, vec_addto
from ncreflect.ncalg import (
    Elem,
    QuotientModule,
    left_ideal_slices,
    monic,
    right_ideal_slices,
    two_sided_ideal_slices,
)
from ncreflect.presentation import loads, realize
from ncreflect.presets import catalog
from ncreflect.presets.kac import (
    kac_palyutkin_characters,
    kac_palyutkin_hopf,
    skew_plane,
)
from ncreflect.presets.groups import dihedral8
from ncreflect import hopf as hopf_module, ncalg, scalars, smash
from ncreflect.scalars import Cyc, I, ONE, ZERO
from ncreflect.smash import (
    RifeData,
    SmashProduct,
    dis_radical,
    dual_group_shortcut,
    integral_span_slices,
    pertinency_slices,
    principal_radical,
    radical_slices,
    rife_action_check,
    rife_hopf_check,
    _trace_on_a,
)

from oracles import (
    all_generators_module,
    block_count_by_ideal,
    constrained_left_ideal,
    downup_s3_spec,
    dual_group_by_generators,
    group_table_id,
    group_tables,
    in_square_by_span,
    integral_span_full_products,
    kac_palyutkin_idempotents,
    matrix_block_units,
    module_kernel,
    normal_forms,
    pairwise_integral_span,
    pairwise_intersection,
    pertinency_by_pushes,
    pertinency_one_at_a_time,
    project_by_reduce,
    residue_trace,
    rife_by_tensor_span,
    signs_v4_spec,
    smash_dim,
    smash_mul_per_entry,
    smash_mul_per_leg,
    spans,
    stacked_module,
    unmarked,
    zassenhaus_intersect,
)

_CACHE: dict = {}

DUAL_PRESETS = ["e22-dualD8", "e23-downup-dualD8"]

# the shipped presets whose radical comes from the smash product
SMASH_PRESETS = ["trivial", "e42-kacpalyutkin", "l41-cyclic-n-m(z3,2,3)", "l41-mystic(1,2)",
                 "l41-mystic(2,4)"]


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
        rad = radical_slices(p.action, D)
        _CACHE[key] = (p, comp, fixed, hdet, jac, rad)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# multiplication in A # H


def test_smash_multiplication_skew_plane():
    p, *_ = bundle("e42-kacpalyutkin", 10)
    sm = SmashProduct(p.action)
    # (1 # z)(u # 1) = v # xz: the swap part of comult(z) cancels on u.
    z, xz = 4, 5
    got = sm.mul(sm.include_h({z: ONE}), 0, sm.include_a({0: ONE}, 1), 1)
    assert got == {1 * sm.nH + xz: ONE}
    # (1 # 1) is a two-sided unit.
    one = sm.include_h(p.hopf.unit)
    for key in range(smash_dim(sm, 2)):
        assert sm.mul(one, 0, {key: ONE}, 2) == {key: ONE}
        assert sm.mul({key: ONE}, 2, one, 0) == {key: ONE}
    # A embeds multiplicatively: (v#1)(u#1) = i uv # 1.
    u1 = sm.include_a({0: ONE}, 1)
    v1 = sm.include_a({1: ONE}, 1)
    uv = p.algebra.element("u*v")
    assert sm.mul(v1, 1, u1, 1) == sm.include_a({k: I * c for k, c in uv.vec.items()}, 2)


def test_smash_multiplication_dual_group():
    p, *_ = bundle("e22-dualD8", 6)
    sm = SmashProduct(p.action)
    g0 = p.action.group
    r = g0.labels.index("r")  # the group degree of the generator x
    for g in range(g0.order):
        got = sm.mul(sm.include_h({g: ONE}), 0, sm.include_a({0: ONE}, 1), 1)
        k = g0.table[g0.inverse[r]][g]
        assert got == {0 * sm.nH + k: ONE}


def test_unit_integral_is_idempotent():
    p42, *_ = bundle("e42-kacpalyutkin", 10)
    sm = SmashProduct(p42.action)
    lam = sm.unit_integral()
    assert lam == {h: Cyc.rational(1, 8) for h in range(8)}
    assert sm.mul(lam, 0, lam, 0) == lam
    p22, *_ = bundle("e22-dualD8", 6)
    sm22 = SmashProduct(p22.action)
    lam22 = sm22.unit_integral()
    assert lam22 == {0: ONE}  # delta at the identity of the dihedral group
    assert sm22.mul(lam22, 0, lam22, 0) == lam22


def test_pertinency_matches_raw_spanning_set():
    """The recursion agrees with the literal span of (a#L)(b#k), and the
    slices are stable under both-sided multiplication by 1 # h."""
    p, *_ = bundle("e42-kacpalyutkin", 10)
    sm = SmashProduct(p.action)
    lam = sm.unit_integral()
    pert = module_kernel(pertinency_slices(sm, 3), 3)
    for d in range(4):
        raw = Subspace(smash_dim(sm, d))
        for e in range(d + 1):
            for a in range(p.algebra.dim(e)):
                alam = sm.mul(sm.include_a({a: ONE}, e), e, lam, 0)
                for key in range(smash_dim(sm, d - e)):
                    raw.add(sm.mul(alam, e, {key: ONE}, d - e))
        assert raw == pert[d]
        for h in range(sm.nH):
            hvec = sm.include_h({h: ONE})
            for v in pert[d].basis():
                assert pert[d].contains(sm.mul(hvec, 0, v, d))
                assert pert[d].contains(sm.mul(v, d, hvec, 0))


@pytest.mark.parametrize("name", SMASH_PRESETS)
def test_integral_span_from_a_hash_one_matches_every_pair(name):
    """(1#Λ)(A_d # H) is already spanned by the (1#Λ)(a#1), and spanning
    through the character components gives the same slices, over the
    basis of H and over the one adapted to the projectors."""
    D = 8
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    for sm in (SmashProduct(p.action), SmashProduct(p.action, projectors, p.chars.chars)):
        assert sm.action.kind != "dual_group"
        plain = spans(sm, integral_span_slices(sm, D))
        assert plain == pairwise_integral_span(sm, D)
        assert spans(sm, integral_span_slices(sm, D, comp.slices)) == plain


@pytest.mark.parametrize("name", SMASH_PRESETS)
def test_integral_times_a_component_vector_is_a_hash_lambda(name):
    """(1#Λ)(a#1) = a # p_{χ⁻¹} for every basis vector a of every slice of
    A_χ: one H-part per component, whatever the degree."""
    D = 8
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    for sm in (SmashProduct(p.action), SmashProduct(p.action, projectors, p.chars.chars)):
        lam = sm.unit_integral()
        for i, slices in enumerate(comp.slices):
            want = sm.coords(projectors[p.chars.group.inverse[i]])
            for d in range(D + 1):
                for a in slices[d].basis():
                    got = sm.mul(lam, 0, sm.include_a(a, d), d)
                    assert got == {k * sm.nH + h: x * y for k, x in a.items()
                                   for h, y in want.items()}


@pytest.mark.parametrize("name", SMASH_PRESETS)
def test_integral_span_multiplies_out_the_complement_block_only(name):
    """Multiplying each complement vector out by 1 − Σ p_χ alone spans the
    S_d that the whole unit of H spans, over the basis of H and over the
    adapted one, with the components and without them."""
    D = 12
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    for sm in (SmashProduct(p.action), SmashProduct(p.action, projectors, p.chars.chars)):
        for components in ((), comp.slices):
            assert (spans(sm, integral_span_slices(sm, D, components))
                    == integral_span_full_products(sm, D, components))


@pytest.mark.parametrize("name, full, kept", [
    ("e42-kacpalyutkin", 40, 8),
    ("l41-mystic(2,4)", 144, 16),
])
def test_complement_products_have_short_legs(name, full, kept):
    """Δ(Λ)(1 ⊗ E) has far fewer entries than Δ(Λ)(1 ⊗ 1); without
    projectors E is the whole unit."""
    p = catalog.build(name, max_degree=2)
    projectors = central_idempotents(p.hopf, p.chars)
    split = SmashProduct(p.action, projectors, p.chars.chars)
    plain = SmashProduct(p.action)
    assert plain.complement == plain.coords(p.hopf.unit)

    def entries(sm, k):
        return sum(len(leg) for leg in sm._legs(sm.unit_integral(), k).values())

    assert entries(split, split.coords(p.hopf.unit)) == full
    assert entries(split, split.complement) == kept


@pytest.mark.parametrize("name", SMASH_PRESETS)
def test_line_parts_of_integral_products_are_component_rows(name):
    """The p_χ-block part of (1#Λ)(e_i#1) is (p_{χ⁻¹}·e_i) # p_χ, since
    Λ↼χ = p_{χ⁻¹}, and so lies in the span of the rows a # p_χ over
    A_{χ⁻¹}; what is left is the complement product (1#Λ)(e_i # E).  The
    lemma holds for every unit vector e_i, not only those off the
    components' pivots."""
    D = 8
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    inverse = p.chars.group.inverse
    sm = SmashProduct(p.action, projectors, p.chars.chars)
    lam, nH = sm.unit_integral(), sm.nH
    for d in range(D + 1):
        for i in range(p.algebra.dim(d)):
            full = sm.mul(lam, 0, sm.include_a({i: ONE}, d), d)
            for b, e in enumerate(projectors):  # the line of p_b is basis vector b
                part = {key: x for key, x in full.items() if key % nH == b}
                image = p.action.act(projectors[inverse[b]], {i: ONE}, d)
                assert part == {k * nH + b: x * e[min(e)] for k, x in image.items()}
                rows = [{k * nH + b: x for k, x in a.items()}
                        for a in comp.slices[inverse[b]][d].basis()]
                assert Subspace.span(smash_dim(sm, d), rows).contains(part)
            rest = {key: x for key, x in full.items() if key % nH >= len(projectors)}
            assert rest == sm.mul(lam, 0, {i * nH + h: y for h, y in sm.complement.items()}, d)


@pytest.mark.parametrize("name", ["e42-kacpalyutkin", "l41-mystic(2,4)"])
def test_smash_mul_matches_the_per_leg_formula(name):
    """The product with the action column taken as it is for a left factor
    of degree 0, and each term added into the output, equals the formula
    with ``alg.mul`` and one dict per leg: on (1#h)(e_i#b_j), on products
    with a left factor of positive degree, and on sums that cancel."""
    p = catalog.build(name, max_degree=4)
    projectors = central_idempotents(p.hopf, p.chars)
    for sm in (SmashProduct(p.action), SmashProduct(p.action, projectors, p.chars.chars)):
        lam = sm.unit_integral()
        for h in range(sm.nH):
            for d in range(3):
                for key in range(smash_dim(sm, d)):
                    one_h = sm.include_h({h: ONE})
                    assert sm.mul(one_h, 0, {key: ONE}, d) == smash_mul_per_leg(sm, one_h, 0, {key: ONE}, d)
        for dv in (1, 2):
            for v in range(smash_dim(sm, dv)):
                for dw in (0, 1, 2):
                    for w in range(smash_dim(sm, dw)):
                        got = sm.mul({v: ONE}, dv, {w: ONE}, dw)
                        assert got == smash_mul_per_leg(sm, {v: ONE}, dv, {w: ONE}, dw)
        for d in range(4):
            mixed = {key: Cyc.rational(key + 1) + I for key in range(smash_dim(sm, d))}
            for v in (lam, {h: I for h in range(sm.nH)}):
                assert sm.mul(v, 0, mixed, d) == smash_mul_per_leg(sm, v, 0, mixed, d)
        # (1#Λ)(1#Λ) = 1#Λ: the product keeps no entry that cancels
        assert sm.mul(lam, 0, sm.include_a({0: ONE}, 0), 0) == smash_mul_per_leg(
            sm, lam, 0, sm.include_a({0: ONE}, 0), 0)


@pytest.mark.parametrize("name", ["e42-kacpalyutkin", "l41-mystic(2,4)"])
def test_smash_mul_matches_the_per_entry_sum(name):
    """Each term added through the fused a + x·c kernel, with the entries
    that cancel pruned as they cancel, gives the entries and normal forms
    of the product-then-sum loop filtered at the end: on (1#h)(e_i#b_j),
    with a left factor of positive degree, and on sums that cancel."""
    p = catalog.build(name, max_degree=4)
    projectors = central_idempotents(p.hopf, p.chars)
    for sm in (SmashProduct(p.action), SmashProduct(p.action, projectors, p.chars.chars)):
        lam = sm.unit_integral()
        cases = [(sm.include_h({h: ONE}), 0, {key: ONE}, d)
                 for h in range(sm.nH) for d in range(3) for key in range(smash_dim(sm, d))]
        cases += [({v: ONE}, dv, {w: ONE}, dw) for dv in (1, 2) for v in range(smash_dim(sm, dv))
                  for dw in (0, 1) for w in range(smash_dim(sm, dw))]
        for d in range(3):
            mixed = {key: Cyc.rational(key + 1, 2) + I for key in range(smash_dim(sm, d))}
            cases += [(lam, 0, mixed, d), ({h: I for h in range(sm.nH)}, 0, mixed, d)]
        cases.append((lam, 0, sm.include_a({0: ONE}, 0), 0))  # (1#Λ)(1#Λ) = 1#Λ
        for v, dv, w, dw in cases:
            assert normal_forms(sm.mul(v, dv, w, dw)) == normal_forms(smash_mul_per_entry(sm, v, dv, w, dw))


def test_radical_slices_makes_no_subfield_solve(monkeypatch):
    """The legs of ``SmashProduct`` are cached by the normal forms of their
    scalars, so the radical asks for no ``Cyc.key`` and solves no subfield
    membership, on every shipped preset, split or not."""
    D = 6
    calls = []
    solve = scalars._express_in_subfield
    monkeypatch.setattr(scalars, "_express_in_subfield",
                        lambda *args: calls.append(args) or solve(*args))
    for name in catalog.shipped():
        p = catalog.build(name, max_degree=D)
        comp = component_report(p.action, p.chars, D)
        projectors = central_idempotents(p.hopf, p.chars)
        calls.clear()
        radical_slices(p.action, D, projectors, comp.slices, p.chars.chars)
        radical_slices(p.action, D)
        assert calls == [], name


@pytest.mark.parametrize("name", catalog.shipped())
def test_pertinency_batches_match_one_at_a_time_adds(name):
    """The kernel of the quotient module and the push recursion, each
    degree inserted as one batch, give the slices that adding every image
    on its own gives."""
    D = 8
    sm = SmashProduct(catalog.build(name, max_degree=D).action)
    want = pertinency_one_at_a_time(sm, D)
    assert module_kernel(pertinency_slices(sm, D), D) == want
    assert pertinency_by_pushes(sm, D) == want


def _check_module_against_pushes(p, D, projectors=(), components=()):
    """The module's kernel, codimensions and trace against the push
    recursion and the residue trace, and ``radical_slices`` against both."""
    sm = SmashProduct(p.action, projectors, p.chars.chars if projectors else ())
    module = pertinency_slices(sm, D, components)
    pushed = pertinency_by_pushes(sm, D, components)
    assert module_kernel(module, D) == pushed
    assert module.dims == [smash_dim(sm, d) - pushed[d].dim for d in range(D + 1)]
    traces = _trace_on_a(module, sm._unit, D)
    assert traces == [residue_trace(sm, pushed[d], d) for d in range(D + 1)]
    rad = radical_slices(p.action, D, projectors, components,
                         p.chars.chars if projectors else ())
    assert rad.slices == traces and rad.quotient_dims == module.dims


@pytest.mark.parametrize("name", catalog.shipped())
def test_quotient_module_matches_the_push_recursion(name):
    """The pertinency ideal kept by its quotient module has the slices of
    the push recursion inside A_d # H, codimension for codimension, and
    the trace read off π(a # 1) is the residue trace: over the basis of H,
    split along the projectors, and spanned through the components."""
    D = 12
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    projectors = central_idempotents(p.hopf, p.chars)
    _check_module_against_pushes(p, D)
    _check_module_against_pushes(p, D, projectors)
    _check_module_against_pushes(p, D, projectors, comp.slices)


@pytest.mark.parametrize("name", ["l41-mystic(2,4)", "e42-kacpalyutkin"])
def test_quotient_module_matches_the_push_recursion_deep(name):
    """The same at degree 20, split and through the components."""
    D = 20
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    _check_module_against_pushes(p, D, central_idempotents(p.hopf, p.chars), comp.slices)


def _stopped(sm, D, components=()):
    """``pertinency_slices`` with the span and everything it multiplies
    wrapped: the module, the number of S_d formed, and the highest degree
    that ``SmashProduct.mul``, ``HopfAction.columns`` and
    ``QuotientModule.image`` were called at (-1 for none)."""
    formed, degrees = [], {"mul": -1, "columns": -1, "image": -1}
    span, mul = smash.integral_span_slices, SmashProduct.mul
    columns, image = type(sm.action).columns, QuotientModule.image

    def counted(*args):
        for vecs in span(*args):
            formed.append(vecs)
            yield vecs

    def seen(name, degree):
        degrees[name] = max(degrees[name], degree)

    def mul_at(self, v, dv, w, dw):
        seen("mul", dv + dw)
        return mul(self, v, dv, w, dw)

    def columns_at(self, h, degree):
        seen("columns", degree)
        return columns(self, h, degree)

    def image_at(self, degree, k, h):
        seen("image", degree)
        return image(self, degree, k, h)

    with mock.patch.object(smash, "integral_span_slices", counted), \
            mock.patch.object(SmashProduct, "mul", mul_at), \
            mock.patch.object(type(sm.action), "columns", columns_at), \
            mock.patch.object(QuotientModule, "image", image_at):
        module = pertinency_slices(sm, D, components)
    return module, len(formed), degrees


def _check_stopped_against_all_generators(action, chars, D) -> int:
    """The module built with S_d up to its stop degree against the one
    built with every S_d to D, over the basis of H and split along the
    projectors through the components: dimensions, basis labels, letter
    maps and trace.  Nothing past the last S_d formed is multiplied or
    imaged.  Returns the last degree of S_d formed."""
    comp = component_report(action, chars, D)
    projectors = central_idempotents(action.hopf, chars)
    last = set()
    for sm, components in ((SmashProduct(action), ()),
                           (SmashProduct(action, projectors, chars.chars), comp.slices)):
        got, formed, degrees = _stopped(sm, D, components)
        want = all_generators_module(sm, D, components)
        assert got.dims == want.dims
        assert got._labels == want._labels
        assert got._letters == want._letters
        assert _trace_on_a(got, sm._unit, D) == _trace_on_a(want, sm._unit, D)
        top = formed - 1
        assert degrees["mul"] <= top and degrees["columns"] <= top and degrees["image"] < top
        last.add(top)
    assert len(last) == 1  # the stop does not depend on the split
    return last.pop()


def _smash_route(name: str, D: int):
    """The action and characters of a preset through the smash route: its
    own, or the ``unmarked`` twin of a dual-group preset."""
    p = catalog.build(name, max_degree=D)
    if p.action.kind == "dual_group":
        _, action, chars = unmarked(p)
        return action, chars
    return p.action, p.chars


@pytest.mark.parametrize("name", SMASH_PRESETS + DUAL_PRESETS)
def test_stopped_generators_give_the_all_generators_module(name):
    """Once W consecutive degrees of S_d add nothing, the S_e below them
    generate P: stopping there gives the module that every S_d to the
    bound gives, on every smash-route preset and on the unmarked twins
    of the dual-group presets."""
    D = 12
    action, chars = _smash_route(name, D)
    assert _check_stopped_against_all_generators(action, chars, D) < D


@pytest.mark.parametrize("name", ["l41-mystic(2,4)", "e42-kacpalyutkin"])
def test_stopped_generators_give_the_all_generators_module_deep(name):
    """The same at degree 20."""
    D = 20
    p = catalog.build(name, max_degree=D)
    _check_stopped_against_all_generators(p.action, p.chars, D)


@pytest.mark.parametrize("name, last", [
    ("l41-mystic(2,4)", 7),
    ("e42-kacpalyutkin", 5),
    ("l41-cyclic-n-m(z3,2,3)", 4),
    ("l41-mystic(1,2)", 3),
])
def test_pertinency_generators_stop_degrees(name, last):
    """At D = 12 the S_d stop raising the rank one degree below ``last``:
    with every generator of weight 1, S_d is formed through ``last``."""
    D = 12
    p = catalog.build(name, max_degree=D)
    assert set(p.algebra.weights) == {1}
    assert _check_stopped_against_all_generators(p.action, p.chars, D) == last


@pytest.mark.parametrize("weights, last", [((2, 2), 6), ((1, 2), 5)])
def test_weighted_generators_stop_after_w_quiet_degrees(weights, last):
    """With W = 2 the stop waits for two quiet degrees in a row.  With
    both weights 2 every odd degree is vacuously quiet, yet S_2 and S_4
    still raise the rank: a rule that stopped after one quiet degree
    would keep S_0 and S_1 alone and get another module."""
    D = 10
    p = realize(loads(json.dumps(signs_v4_spec(weights))), D)
    assert _check_stopped_against_all_generators(p.action, p.chars, D) == last
    if weights == (2, 2):
        sm = SmashProduct(p.action)
        gens = list(integral_span_slices(sm, D))
        assert [len(gens[d]) for d in (1, 3, 5)] == [0, 0, 0]
        early = QuotientModule(p.algebra, sm.nH, gens[:2] + [()] * (D - 1))
        assert early.dims != all_generators_module(sm, D).dims


@pytest.mark.parametrize("name", catalog.shipped())
def test_split_radical_matches_unsplit(name):
    """Splitting along the character projectors and 1 - Σ p_χ leaves the
    trace and the codimensions as they are; each echelon row of the split
    ideal lies in one block, and the block codimensions add up."""
    D = 12
    p = catalog.build(name, max_degree=D)
    projectors = central_idempotents(p.hopf, p.chars)
    comp = component_report(p.action, p.chars, D)
    plain = radical_slices(p.action, D)
    for split in (radical_slices(p.action, D, projectors, (), p.chars.chars),
                  radical_slices(p.action, D, projectors, comp.slices, p.chars.chars)):
        assert split.slices == plain.slices
        assert split.quotient_dims == plain.quotient_dims
    sm = SmashProduct(p.action, projectors, p.chars.chars)
    sizes = [sm.block_of.count(b) for b in range(max(sm.block_of) + 1)]
    if len(p.hopf.unit) > 1:  # the unit is Σ p_g: no complement block
        assert len(sizes) == len(projectors)
    pert = module_kernel(pertinency_slices(sm, D), D)
    for d in range(D + 1):
        codims = [m * p.algebra.dim(d) for m in sizes]
        for row in pert[d].basis():
            blocks = {sm.block_of[k % sm.nH] for k in row}
            assert len(blocks) == 1
            codims[blocks.pop()] -= 1
        assert sum(codims) == plain.quotient_dims[d]


def test_blocks_must_add_up_to_h():
    p = catalog.build("l41-mystic(1,2)", max_degree=2)
    projectors = central_idempotents(p.hopf, p.chars)
    with pytest.raises(ValueError, match="do not add up to H"):
        SmashProduct(p.action, projectors + projectors[:1], p.chars.chars + p.chars.chars[:1])


@pytest.mark.parametrize("name, D, unit_terms", [
    ("e42-kacpalyutkin", 7, 1),  # the unit of H is the basis vector 1
    ("e22-dualD8", 5, 8),  # the unit of the dual group algebra is the sum of the p_g
])
def test_trace_on_a_matches_intersection_with_a_hash_one(name, D, unit_terms):
    p = catalog.build(name, max_degree=D)
    sm = SmashProduct(p.action)
    assert len(p.hopf.unit) == unit_terms
    module = pertinency_slices(sm, D)
    pert = module_kernel(module, D)
    traces = _trace_on_a(module, sm._unit, D)
    for d in range(D + 1):
        dim = p.algebra.dim(d)
        a_hash_one = [sm.include_a({i: ONE}, d) for i in range(dim)]
        inter = zassenhaus_intersect(pert[d], Subspace.span(smash_dim(sm, d), a_hash_one))
        want = Subspace(dim)
        for w in inter.basis():
            coeffs = express(smash_dim(sm, d), a_hash_one, w)
            want.add({i: c for i, c in enumerate(coeffs) if not c.is_zero()})
        assert traces[d] == want, d
        assert residue_trace(sm, pert[d], d) == want, d


# ---------------------------------------------------------------------------
# the radical of the skew plane under the eight-dimensional Hopf algebra


def test_kac_radical_is_principal_but_not_jacobian():
    p, comp, fixed, hdet, jac, rad = bundle("e42-kacpalyutkin", 10)
    alg = p.algebra
    assert [s.dim for s in rad.slices] == [0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5]
    w = alg.element("u^5*v - u*v^5")  # uv(u^4 - v^4)
    ideal = two_sided_ideal_slices(alg, [w], 10)
    assert all(ideal[d] == rad.slices[d] for d in range(11))
    pr = principal_radical(alg, rad.slices, 10)
    assert pr.generator == w
    assert pr.normal is True
    assert pr.reason == ""
    # the generator factors through the Jacobian on both sides
    ju = alg.mul(jac.j.vec, 4, alg.element("u^2 + v^2").vec, 2)
    uj = alg.mul(alg.element("u^2 + v^2").vec, 2, jac.j.vec, 4)
    assert proportional(pr.generator, Elem(alg, 6, ju))
    assert proportional(pr.generator, Elem(alg, 6, uj))
    # but the radical is strictly smaller than the left ideal A j
    left = left_ideal_slices(alg, [jac.j], 10)
    assert all(rad.slices[d] <= left[d] for d in range(11))
    assert rad.slices[4].dim == 0 and left[4].dim == 1


def test_kac_radical_matrix_block_intersection():
    """The radical is A j intersected with the two constrained left ideals
    coming from the 2x2 matrix block of the Hopf algebra."""
    p, comp, fixed, hdet, jac, rad = bundle("e42-kacpalyutkin", 10)
    mbu = matrix_block_units()
    L = constrained_left_ideal(p.action, [(mbu["f3"], mbu["m21"]), (mbu["m12"], mbu["f4"])], 10)
    Lp = constrained_left_ideal(p.action, [(mbu["f4"], mbu["m12"]), (mbu["m21"], mbu["f3"])], 10)
    left = left_ideal_slices(p.algebra, [jac.j], 10)
    for d in range(11):
        assert rad.slices[d] == left[d].intersect(L[d]).intersect(Lp[d])


def test_kac_dis_radical():
    p, comp, fixed, hdet, jac, rad = bundle("e42-kacpalyutkin", 10)
    alg = p.algebra
    dis = dis_radical(alg, rad.slices, fixed.slices, 10)
    assert dis.dims == [0] * 10 + [1]
    assert dis.first_degree == 10
    expected = alg.mul(jac.delta_left.vec, 8, alg.element("u^2 + v^2").vec, 2)
    assert proportional(dis.generator, Elem(alg, 10, expected))
    assert dis.principal


def test_kac_rife():
    p, comp, fixed, hdet, jac, rad = bundle("e42-kacpalyutkin", 10)
    data = rife_action_check(
        p.action, p.chars, kac_palyutkin_idempotents(), jac.j, rad.slices, 10
    )
    assert data.hopf_rife is True
    assert data.j_normal is False
    assert data.radical_is_jacobian_ideal is False
    assert data.action_rife is False
    assert data.radical_inside_left_ideal is True


def test_kac_integral_comultiplication_residual():
    """comult(L) minus the character part is exactly the matrix-unit part."""
    hopf = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(hopf)
    idem = kac_palyutkin_idempotents()
    assert hopf.integral() == idem[0]
    residual = dict(hopf.comult_vec(hopf.integral()))
    for g in range(4):
        for i, a in idem[g].items():
            for j, b in idem[g].items():
                key = (i, j)
                new = residual.get(key, ZERO) - a * b
                if new.is_zero():
                    residual.pop(key, None)
                else:
                    residual[key] = new
    mbu = matrix_block_units()
    expected: dict = {}
    for unit in mbu.values():
        for i, a in unit.items():
            for j, b in unit.items():
                expected[(i, j)] = expected.get((i, j), ZERO) + a * b * Cyc.rational(1, 2)
    assert residual == {k: c for k, c in expected.items() if not c.is_zero()}
    assert rife_hopf_check(hopf, chars, idem) is True
    icom = commutator_ideal(hopf)
    assert icom.dim == 4
    for unit in mbu.values():
        assert icom.contains(unit)


def test_rife_hopf_other_examples():
    # Any dual group algebra: comult(delta_e) is exactly sum p_g x p_{g^-1}.
    p22, *_ = bundle("e22-dualD8", 6)
    idem22 = central_idempotents(p22.hopf, p22.chars)
    assert commutator_ideal(p22.hopf).dim == 0
    assert rife_hopf_check(p22.hopf, p22.chars, idem22) is True
    # The order-two group algebra, with commutative ideal zero.
    g2 = Group.cyclic(2)
    h2 = group_algebra(g2)
    ch2 = group_linear_characters(h2)
    assert rife_hopf_check(h2, ch2, central_idempotents(h2, ch2)) is True
    # Commutator ideal of a noncommutative group algebra: the abelianisation
    # of the dihedral group of order 8 is Klein four, so the ideal has
    # dimension 8 - 4.
    hd8 = group_algebra(dihedral8())
    assert commutator_ideal(hd8).dim == 4


def _rife_three_ways(hopf, chars) -> tuple[bool, bool, bool]:
    """The block count, the residual test on the verified projectors and
    the residual spanned in dimension dim H²."""
    idem = central_idempotents(hopf, chars)
    return (rife_hopf_check(hopf, chars), rife_hopf_check(hopf, chars, idem),
            rife_by_tensor_span(hopf, chars, idem))


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_block_count_matches_the_residual_test(group):
    """kG and k^G are Hopf-rife for every group: the block count, the
    residual read row by row and column by column, and the residual
    spanned in H ⊗ H agree."""
    for build, characters in ((group_algebra, group_linear_characters),
                              (dual_group_algebra, dual_group_characters)):
        h = build(group)
        assert _rife_three_ways(h, characters(h)) == (True, True, True)


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_group_table_block_count_matches_the_commutator_ideal(group, monkeypatch):
    """On kG, dim I_com = |G| − |G/[G, G]| read off the table gives the
    block count that commutator_ideal gave, for all the linear characters
    and for the cyclic subgroup each one generates; no product is
    formed."""
    h = group_algebra(group)
    full = group_linear_characters(h)
    lists = [full] + [CharacterGroup(h, [full.chars[k] for k in sorted(full.group.closure([i]))])
                      for i in range(len(full))]
    want = [block_count_by_ideal(h, chars) for chars in lists]
    assert want[0] is True
    monkeypatch.setattr(hopf_module, "commutator_ideal", None)
    assert [rife_hopf_check(h, chars) for chars in lists] == want


def test_block_count_matches_the_residual_test_on_e42():
    h = kac_palyutkin_hopf()
    assert _rife_three_ways(h, kac_palyutkin_characters(h)) == (True, True, True)


def test_block_count_matches_the_residual_test_on_incomplete_characters():
    """A character group that misses some one-dimensional block leaves a
    commutative part of the residual outside I_com ⊗ I_com: kC3 with the
    trivial character alone, and k^C4 with the evaluations at 0 and 2."""
    c3 = group_algebra(Group.cyclic(3))
    trivial = CharacterGroup(c3, [Character(c3, [ONE] * 3, "triv")])
    assert _rife_three_ways(c3, trivial) == (False, False, False)
    c4 = dual_group_algebra(Group.cyclic(4))
    even = CharacterGroup(c4, [Character(c4, [ONE if i == g else ZERO for i in range(4)],
                                         str(g)) for g in (0, 2)])
    assert _rife_three_ways(c4, even) == (False, False, False)


def test_declared_idempotents_match_the_residual_span():
    """Declared idempotents take the residual test, which reaches the
    verdict of the span in H ⊗ H on the Kac-Paljutkin projectors and on
    four wrong vectors."""
    h = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(h)
    at = {label: k for k, label in enumerate(h.labels)}
    half = Cyc.rational(1, 2)
    wrong = [{at["1"]: ONE}, {at["x"]: ONE}, {at["y"]: ONE}, {at["1"]: half, at["z"]: half}]
    for idem, want in ((kac_palyutkin_idempotents(), True), (wrong, False)):
        assert rife_hopf_check(h, chars, idem) is want
        assert rife_by_tensor_span(h, chars, idem) is want


def test_rows_and_columns_decide_the_tensor_square():
    """x lies in I ⊗ I exactly when its rows and columns lie in I: checked
    against the span of every u ⊗ w on random tensors built from I_com of
    kD8 (dimension 4 in 8), from I ⊗ I alone and with one term of I ⊗ H,
    H ⊗ I or H ⊗ H added."""
    rng = random.Random(7)
    hd8 = group_algebra(dihedral8())
    icom = commutator_ideal(hd8)
    inside, whole = icom.basis(), [{i: ONE} for i in range(hd8.dim)]

    def term(left, right):
        u, w = rng.choice(left), rng.choice(right)
        c = Cyc.rational(rng.randint(-3, 3) or 1)
        return {(i, j): a * b * c for i, a in u.items() for j, b in w.items()}

    for _ in range(60):
        x: dict = {}
        for _ in range(rng.randint(0, 3)):
            vec_addto(x, term(inside, inside))
        extra = rng.choice([None, (inside, whole), (whole, inside), (whole, whole)])
        if extra is not None:
            vec_addto(x, term(*extra))
        assert smash._in_square(icom, x) is in_square_by_span(icom, x, hd8.dim)


# ---------------------------------------------------------------------------
# dual group actions: the radical via the shortcut and via the smash product


def test_dihedral3_radical_is_jacobian_ideal():
    p, comp, fixed, hdet, jac, rad = bundle("e22-dualD8", 6)
    alg = p.algebra
    ideal = two_sided_ideal_slices(alg, [jac.j], 6)
    assert all(ideal[d] == rad.slices[d] for d in range(7))
    pr = principal_radical(alg, rad.slices, 6)
    assert proportional(pr.generator, alg.element("z*x*y"))
    assert pr.normal is True and pr.reason == ""
    assert dual_group_shortcut(p.action, 6).slices == rad.slices
    data = rife_action_check(
        p.action, p.chars, central_idempotents(p.hopf, p.chars), jac.j, rad.slices, 6
    )
    assert data.hopf_rife and data.j_normal and data.radical_is_jacobian_ideal
    assert data.action_rife is True
    assert data.radical_inside_left_ideal is True


def test_dihedral3_component_intersection_forms():
    """cap_g A A_g = cap_g A f_g = A f_m = f_m A for m the inverse of the
    homological determinant."""
    p, comp, fixed, hdet, jac, rad = bundle("e22-dualD8", 6)
    alg = p.algebra
    g0 = p.chars.group
    m = g0.inverse[hdet.char_index]
    fm = comp.f[m]
    assert fm is not None and proportional(fm, alg.element("z*x*y"))
    left = left_ideal_slices(alg, [fm], 6)
    right = right_ideal_slices(alg, [fm], 6)
    per_g = [left_ideal_slices(alg, [comp.f[g]], 6) for g in range(g0.order)]
    for d in range(7):
        via_f = per_g[0][d]
        for ideal in per_g[1:]:
            via_f = via_f.intersect(ideal[d])
        assert left[d] == rad.slices[d]
        assert right[d] == rad.slices[d]
        assert via_f == rad.slices[d]


def _three_modules(name: str, D: int) -> list[QuotientModule]:
    """A's quotient module, the pertinency module (spanned through the
    components) and the stacked module of the components of a preset
    (``stacked_module``), built to D; on a dual-group action also the
    G-graded module of ``dual_group_shortcut``."""
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    made = []

    class Recording(QuotientModule):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(smash, "QuotientModule", Recording):
        pertinency_slices(SmashProduct(p.action), D, comp.slices)
        if p.action.kind == "dual_group":
            dual_group_shortcut(p.action, D)
    p.algebra.build(D)
    return [p.algebra._module, made[0], stacked_module(p.algebra, comp.slices, D)] + made[1:]


@pytest.mark.parametrize("name", catalog.shipped())
def test_module_letter_maps_read_off_the_echelon_match_reduction(name):
    """For A, the pertinency module, the stacked module and the G-graded
    dual-group module, the letter maps and images read off the echelon
    are the ones that reducing each carrier column modulo the relation
    rows gives."""
    D = 12
    got = _three_modules(name, D)
    with mock.patch.object(ncalg, "_project", project_by_reduce):
        want = _three_modules(name, D)
    assert len(got) == len(want) == (4 if name in DUAL_PRESETS else 3)
    for module, reference in zip(got, want):
        assert module.dims == reference.dims and module._labels == reference._labels
        assert module._letters == reference._letters
        assert module._images == reference._images


@pytest.mark.parametrize("name", catalog.shipped())
def test_dual_group_shortcut_matches_pairwise_intersection(name):
    # skipping the component that holds 1 (A·A_g = A there) and reading
    # the intersection off one kernel of the stacked module give the
    # pairwise fold over every component, whatever the action
    p, comp, *_ = bundle(name, 12)
    alg = p.algebra
    assert dual_group_by_generators(alg, comp.slices, 12) == pairwise_intersection(alg, comp.slices, 12)
    # one component alone: A·A_g is all of A only when 1 is in A_g, so a
    # component without 1 is never skipped, even where the others'
    # intersection already lies inside A·A_g
    for slices in comp.slices:
        assert dual_group_by_generators(alg, [slices], 12) == pairwise_intersection(alg, [slices], 12)


@pytest.mark.parametrize("name", DUAL_PRESETS)
def test_dual_group_shortcut_matches_pairwise_intersection_deep(name):
    """The kernel of the G-graded quotient module against the pairwise
    fold at degree 20, on the two dual group actions."""
    D = 20
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    assert dual_group_shortcut(p.action, D) == pairwise_intersection(p.algebra, comp.slices, D)


def _graded_and_stacked(name: str, D: int) -> tuple[QuotientModule, QuotientModule]:
    """The G-graded module of ``dual_group_shortcut`` and the stacked
    module of the parent route, both built to D."""
    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    made = []

    class Recording(QuotientModule):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(smash, "QuotientModule", Recording):
        dual_group_shortcut(p.action, D)
    return made[0], stacked_module(p.algebra, comp.slices, D)


@pytest.mark.parametrize("D", [12, 20])
@pytest.mark.parametrize("name", DUAL_PRESETS)
def test_graded_module_equals_the_stacked_module(name, D):
    """Each relation row lies in one G-degree block, so dropping copy g's
    G-degree-g block leaves the live blocks to eliminate as the generator
    rows did: the dimensions, the basis labels, the letter maps and the
    degree-0 images are those of the stacked module."""
    graded, stacked = _graded_and_stacked(name, D)
    assert graded.dims == stacked.dims
    assert graded._labels == stacked._labels
    assert graded._letters == stacked._letters
    degree0 = {key: v for key, v in stacked._images.items() if key[0] == 0}
    assert graded._images == degree0


@pytest.mark.parametrize("name", DUAL_PRESETS)
def test_graded_module_forms_no_generator_images(name, monkeypatch):
    """Building the module of ``dual_group_shortcut`` calls
    ``QuotientModule.image`` not once, and inserts fewer rows than building
    the stacked module with its generator rows."""
    D = 12
    counts = {"image": 0, "insert": 0}
    image, insert = QuotientModule.image, ncalg.SparseEch.insert

    def counting_image(self, *args):
        counts["image"] += 1
        return image(self, *args)

    def counting_insert(self, vec):
        counts["insert"] += 1
        return insert(self, vec)

    builds = []

    class Counted(QuotientModule):
        def __init__(self, *args):
            before = dict(counts)
            super().__init__(*args)
            builds.append({k: counts[k] - before[k] for k in counts})

    p = catalog.build(name, max_degree=D)
    comp = component_report(p.action, p.chars, D)
    p.algebra.build(D)
    monkeypatch.setattr(QuotientModule, "image", counting_image)
    monkeypatch.setattr(ncalg.SparseEch, "insert", counting_insert)
    monkeypatch.setattr(smash, "QuotientModule", Counted)
    dual_group_shortcut(p.action, D)
    counts.update(image=0, insert=0)
    stacked_module(p.algebra, comp.slices, D)
    graded, stacked = builds[0], dict(counts)
    assert graded["image"] == 0 and stacked["image"] > 0
    assert graded["insert"] < stacked["insert"]


def test_graded_downup_agrees_with_pairwise_intersection():
    """A grading no preset ships: the downup algebra with d ↦ (01) and
    u ↦ (12) in S3, whose components are the G-degrees of the words."""
    D = 8
    p = realize(loads(json.dumps(downup_s3_spec())), D)
    comp = component_report(p.action, p.chars, D)
    assert dual_group_shortcut(p.action, D) == pairwise_intersection(p.algebra, comp.slices, D)


@pytest.mark.parametrize("name", catalog.shipped())
def test_normal_generators_have_equal_left_and_two_sided_ideals(name):
    # AxA = Ax for x normal up to the bound, so the rife check and the
    # principal search build the left ideal of a normal j or w; on e42 j
    # is not normal and its two ideals differ
    p, comp, fixed, hdet, jac, rad = bundle(name, 12)
    alg = p.algebra
    pr = principal_radical(alg, rad.slices, 12)
    data = rife_action_check(p.action, p.chars, central_idempotents(p.hopf, p.chars),
                             jac.j, rad.slices, 12)
    for x, normal in ((jac.j, data.j_normal), (pr.generator, pr.normal)):
        if x is not None:
            assert (left_ideal_slices(alg, [x], 12) == two_sided_ideal_slices(alg, [x], 12)) is normal
    assert data.j_normal is (name != "e42-kacpalyutkin")


@pytest.mark.parametrize("name", catalog.shipped())
def test_rife_check_shares_the_principal_ideal(name, monkeypatch):
    """Handed the principal search, the rife check reaches the verdicts it
    reaches alone.  Where monic(j) is the radical's lowest generator w, it
    takes j's normality and A·j = A·w from there and builds no ideal."""
    D = 12
    p, comp, fixed, hdet, jac, rad = bundle(name, D)
    alg = p.algebra
    idem = central_idempotents(p.hopf, p.chars)
    pr = principal_radical(alg, rad.slices, D)
    alone = rife_action_check(p.action, p.chars, idem, jac.j, rad.slices, D)
    if pr.ideal is not None:
        assert pr.ideal == left_ideal_slices(alg, [pr.generator], D)
    shared = pr.generator == monic(alg, jac.j.degree, jac.j.vec)
    assert shared is (name in ("trivial", "e22-dualD8", "l41-cyclic-n-m(z3,2,3)",
                               "l41-mystic(1,2)", "l41-mystic(2,4)"))
    built = []
    for fn in (left_ideal_slices, two_sided_ideal_slices):
        monkeypatch.setattr(smash, fn.__name__,
                            lambda *args, fn=fn: built.append(fn.__name__) or fn(*args))
    assert rife_action_check(p.action, p.chars, idem, jac.j, rad.slices, D, pr) == alone
    assert (built == []) is (shared and pr.normal)


def test_rife_without_a_normal_jacobian_compares_the_two_sided_ideal():
    p, comp, fixed, hdet, jac, rad = bundle("e42-kacpalyutkin", 12)
    alg = p.algebra
    idem = central_idempotents(p.hopf, p.chars)
    two = two_sided_ideal_slices(alg, [jac.j], 12)
    left = left_ideal_slices(alg, [jac.j], 12)
    data = rife_action_check(p.action, p.chars, idem, jac.j, rad.slices, 12)
    assert data == RifeData(True, False, two == rad.slices, False,
                            all(rad.slices[d] <= left[d] for d in range(13)))
    # a radical equal to AjA is the Jacobian ideal, though it is not Aj
    assert two != left
    assert rife_action_check(p.action, p.chars, idem, jac.j, two, 12).radical_is_jacobian_ideal


def test_downup_radical_strictly_inside_jacobian_ideal():
    p, comp, fixed, hdet, jac, rad = bundle("e23-downup-dualD8", 8)
    alg = p.algebra
    ideal = two_sided_ideal_slices(alg, [jac.j], 8)
    assert all(rad.slices[d] <= ideal[d] for d in range(9))
    gap = [d for d in range(9) if rad.slices[d].dim < ideal[d].dim]
    assert gap and gap[0] == 2  # (u^2) already separates in degree two
    assert rad.slices[2].dim == 0 and ideal[2].dim == 1
    assert dual_group_shortcut(p.action, 8).slices == rad.slices
    data = rife_action_check(
        p.action, p.chars, central_idempotents(p.hopf, p.chars), jac.j, rad.slices, 8
    )
    assert data.hopf_rife is True
    assert data.j_normal is True
    assert data.radical_is_jacobian_ideal is False
    assert data.action_rife is False
    assert data.radical_inside_left_ideal is True


def test_trivial_action_radical_is_everything():
    p, comp, fixed, hdet, jac, rad = bundle("trivial", 6)
    alg = p.algebra
    assert [s.dim for s in rad.slices] == [alg.dim(d) for d in range(7)]
    assert rad.quotient_dims == [0] * 7
    pr = principal_radical(alg, rad.slices, 6)
    assert pr.generator is not None and pr.generator.degree == 0
    assert pr.normal is True and pr.reason == ""
    dis = dis_radical(alg, rad.slices, fixed.slices, 6)
    assert dis.first_degree == 0 and dis.principal


def test_synthetic_intersection_without_principal_generator():
    """Intersecting two left ideals of the skew plane gives a graded ideal
    whose lowest slice is a line spanned by a non-normal element, so the
    principal search reports failure instead of a generator certificate."""
    alg = skew_plane(8)
    left_u = left_ideal_slices(alg, [alg.element("u")], 8)
    left_uv = left_ideal_slices(alg, [alg.element("u + v")], 8)
    synth = [left_u[d].intersect(left_uv[d]) for d in range(9)]
    assert synth[1].dim == 0 and synth[2].dim == 1
    pr = principal_radical(alg, synth, 8)
    assert pr.generator == alg.element("u^2 + u*v")
    assert pr.normal is False
    assert pr.reason == "lowest generator is not normal"
