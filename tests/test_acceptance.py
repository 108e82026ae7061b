"""Acceptance sweep: the headline results on the shipped examples.

Each test covers one advertised block of behaviour at degree bound 12 and
asserts exact values only.  Expected elements are re-parsed from their
closed forms and compared up to scalar; expected dimensions are either
immediate from the definitions or reproduced by an independent oracle
(full free-slice elimination, or a direct monomial count) inside the test
that uses them.
"""

from __future__ import annotations

import json
from math import comb

from oracles import QuotientOracle, is_abelian
from ncreflect.divisors import divisor_report
from ncreflect.hopf import HopfAlgebra
from ncreflect.invariants import (
    check_component_multiplicativity,
    component_report,
    covariant_data,
    fixed_ring,
    homological_determinant,
    jacobian_data,
    proportional,
    series_quotient,
)
from ncreflect.ncalg import mul_elem_space, mul_space_elem, two_sided_ideal_slices
from ncreflect.presets import catalog
from ncreflect.presets.kac import kac_palyutkin_characters, kac_palyutkin_hopf
from ncreflect.scalars import Cyc, I, ONE, ZERO, zeta
from ncreflect.smash import dis_radical, dual_group_shortcut, principal_radical, radical_slices
from ncreflect.structure import (
    cocycle_table,
    frobenius_pairing,
    isotypic_series,
    jacobian_transfer,
    nakayama_check,
    steinberg_factorization,
    tp_proportional,
    trace_discriminant,
)

D = 12
_CACHE: dict = {}


def bundle(name: str):
    if name not in _CACHE:
        p = catalog.build(name, max_degree=D)
        comp = component_report(p.action, p.chars, D)
        fixed = fixed_ring(p.action, p.chars, comp.slices, D)
        supplied = p.options.get("hdet")
        sup_idx = p.chars.group.labels.index(supplied) if supplied else None
        hdet = homological_determinant(p.action, p.chars, comp, fixed, D, supplied=sup_idx)
        jac = jacobian_data(p.algebra, p.chars, comp, fixed, hdet.char_index)
        _CACHE[name] = (p, comp, fixed, hdet, jac)
    return _CACHE[name]


def line_set(alg, report) -> set[str]:
    return {alg.show_vec(e.vec, 1) for e in report.lines}


def divisor_lines(p, f) -> tuple[set[str], set[str]]:
    alg = p.algebra
    mode = "certificate" if alg.ngens == 2 and alg.dim(1) == 2 else "candidates"
    left = divisor_report(alg, f, "left", mode=mode, conductor=p.conductor)
    right = divisor_report(alg, f, "right", mode=mode, conductor=p.conductor)
    return line_set(alg, left), line_set(alg, right)


# ---------------------------------------------------------------------------
# the skew plane uv with vu = i uv under the eight-dimensional Hopf algebra


def test_kac_palyutkin_invariant_suite():
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    alg = p.algebra
    labels = p.chars.group.labels

    # both routes land on the same character, and it is its own inverse
    assert labels[hdet.char_index] == "ggp"
    assert set(hdet.routes) == {"koszul", "hilbert"}
    assert all(i == hdet.char_index for i in hdet.routes.values())
    assert p.chars.group.inverse[hdet.char_index] == hdet.char_index

    # Jacobian, arrangement, and discriminant in closed form
    assert proportional(jac.j, alg.element("u*v*(u^2 - v^2)", 4))
    assert proportional(jac.a, jac.j)
    delta = alg.element("u^2*v^2*(u^2 - v^2)^2", 8)
    assert proportional(jac.delta_left, delta)
    assert proportional(jac.delta_right, delta)

    # component generators, and each component equals its generator times R
    f = {labels[i]: comp.f[i] for i in range(4)}
    assert proportional(f["g"], alg.element("u^2 - v^2", 2))
    assert proportional(f["gp"], alg.element("u*v", 2))
    assert proportional(f["ggp"], alg.element("u*v*(u^2 - v^2)", 4))
    for gi in range(4):
        fg = comp.f[gi]
        assert all(comp.slices[gi][d].dim == 0 for d in range(fg.degree))
        for d in range(D + 1 - fg.degree):
            assert mul_elem_space(alg, fg, fixed.slices[d], d) == comp.slices[gi][d + fg.degree]

    # xi = (1 + t)(1 + t + t^2 + t^3), exact through the bound
    xi = series_quotient(alg.hilbert(D), fixed.dims, D)
    expect = [0] * (D + 1)
    for i, a in enumerate([1, 1]):
        for k, b in enumerate([1, 1, 1, 1]):
            expect[i + k] += a * b
    assert xi == expect

    # one-sided covariants match xi, the two-sided quotient stops at degree 2
    cov = covariant_data(alg, fixed, D)
    assert cov.left_dims == cov.right_dims == expect
    assert cov.algebra_dims == [1, 2, 2] + [0] * (D - 2)
    assert cov.tepid is False

    # the grouplike-isotypic part is exactly the even-degree subalgebra
    iso = isotypic_series(p.action, p.chars, comp, fixed, D)
    assert iso.idempotent_images_match_components
    for d in range(D + 1):
        if d % 2 == 0:
            assert iso.grouplike_slices[d] == alg.slice_space(d)
        else:
            assert iso.grouplike_dims[d] == 0


# ---------------------------------------------------------------------------
# smash-product radicals traced back to the algebra


def test_radical_ideals_and_their_principal_generators():
    # skew plane: the radical is A * uv(u^4 - v^4), one dimension short of
    # the count suggested by its degree
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    alg = p.algebra
    rad = radical_slices(p.action, D)
    w = alg.element("u*v*(u^4 - v^4)", 6)
    for d in range(D + 1):
        if d < 6:
            assert rad.slices[d].dim == 0
        else:
            assert rad.slices[d] == mul_space_elem(alg, alg.slice_space(d - 6), d - 6, w)
            assert rad.slices[d].dim == d - 5
    pr = principal_radical(alg, rad.slices, D)
    assert pr.normal is True
    assert proportional(pr.generator, w)

    # its trace on the fixed ring is principal on delta * (u^2 + v^2)
    dr = dis_radical(alg, rad.slices, fixed.slices, D)
    assert dr.first_degree == 10
    assert dr.principal is True
    assert dr.dims == [0] * 10 + [1, 0, 1]
    assert proportional(dr.generator, alg.element("u^2*v^2*(u^2 - v^2)^2*(u^2 + v^2)", 10))

    # three-generator dihedral example: the radical is the ideal (zxy)
    p2, comp2, fixed2, hdet2, jac2 = bundle("e22-dualD8")
    alg2 = p2.algebra
    rad2 = radical_slices(p2.action, D)
    ideal2 = two_sided_ideal_slices(alg2, [alg2.element("z*x*y", 3)], D)
    assert all(rad2.slices[d] == ideal2[d] for d in range(D + 1))

    # down-up example: the radical sits strictly inside (u^2)
    p3, comp3, fixed3, hdet3, jac3 = bundle("e23-downup-dualD8")
    alg3 = p3.algebra
    rad3 = radical_slices(p3.action, D)
    ideal3 = two_sided_ideal_slices(alg3, [alg3.element("u^2", 2)], D)
    assert all(rad3.slices[d] <= ideal3[d] for d in range(D + 1))
    for d in range(2, 11):
        assert rad3.slices[d].dim < ideal3[d].dim


# ---------------------------------------------------------------------------
# the three-generator algebra graded by the dual of the dihedral group


def test_dihedral_three_generator_suite():
    p, comp, fixed, hdet, jac = bundle("e22-dualD8")
    alg = p.algebra

    assert fixed.gen_degrees == [2, 2, 2]
    assert fixed.polynomial is True
    assert fixed.commutative is True
    assert p.chars.group.labels[hdet.char_index] == "rp3"

    assert proportional(jac.j, alg.element("z*x*y", 3))
    assert proportional(jac.a, jac.j)
    assert proportional(jac.delta_left, alg.element("x^2*y^2*z^2", 6))

    left, right = divisor_lines(p, jac.j)
    assert left == right == {"x", "y", "z"}

    assert covariant_data(alg, fixed, D).tepid is True

    # trace pairing over the fixed ring: determinant (x^2 y^2 z^2)^4 up to
    # scalar, a product of pair products, wedged between delta and a power
    # of delta, so its radical agrees with the radical of delta
    cocy = cocycle_table(alg, p.chars, comp, fixed, D)
    assert cocy.complete and cocy.normal
    trace = trace_discriminant(p.action, p.chars, comp, fixed, cocy, jac.delta_left, D)
    assert trace.applicable is True
    assert trace.precondition_notes == []
    assert sorted(trace.generator_names) == ["x^2", "y^2", "z^2"]
    assert tp_proportional(trace.discriminant, {(4, 4, 4): ONE})
    assert trace.is_product_of_pair_products is True
    assert trace.delta_divides is True
    assert trace.divides_delta_power is True
    assert trace.verdict == "radical-equal"


# ---------------------------------------------------------------------------
# the two parametric families of diagonal and anti-diagonal scalings


def test_parametric_family_jacobians_and_lines():
    p, comp, fixed, hdet, jac = bundle("l41-cyclic-n-m(z3,2,3)")
    alg = p.algebra
    assert proportional(jac.j, alg.element("x*y^2", 3))
    assert proportional(jac.a, alg.element("x*y", 2))
    left, right = divisor_lines(p, jac.j)
    assert left == right == {"x", "y"}

    p, comp, fixed, hdet, jac = bundle("l41-mystic(1,2)")
    alg = p.algebra
    assert proportional(jac.j, alg.element("x^2 - y^2", 2))
    assert proportional(jac.a, jac.j)

    p, comp, fixed, hdet, jac = bundle("l41-mystic(2,4)")
    alg = p.algebra
    assert proportional(jac.j, alg.element("x*y*(x^4 - y^4)", 6))
    assert proportional(jac.a, jac.j)
    left, right = divisor_lines(p, jac.j)
    assert left == right == {"x", "y", "x - y", "x + y", "x - z4*y", "x + z4*y"}


# ---------------------------------------------------------------------------
# left and right divisors of the same Jacobian can disagree


def test_kac_palyutkin_divisor_asymmetry():
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    left, right = divisor_lines(p, jac.j)
    assert left == {"u", "v", "u - z8^3*v", "u + z8^3*v"}
    assert right == {"u", "v", "u - z8*v", "u + z8*v"}
    assert left != right
    assert left & right == {"u", "v"}


# ---------------------------------------------------------------------------
# structural identities that must hold on every example at once


def test_structural_identities_on_every_preset():
    for name in catalog.shipped():
        p, comp, fixed, hdet, jac = bundle(name)
        alg = p.algebra

        # components multiply into components
        assert check_component_multiplicativity(p.action, p.chars, comp.slices, D) == []

        # left and right discriminants span the same line
        assert proportional(jac.delta_left, jac.delta_right)

        # the arrangement divides the Jacobian on both sides
        assert jac.a_divides_j_left, name
        assert jac.a_divides_j_right, name

        # two-sided divisor lines sit inside both one-sided sets
        if jac.j.degree > 0:
            left, right = divisor_lines(p, jac.j)
            two_sided = left & right
            assert two_sided <= left and two_sided <= right

        # component cocycles are normal in the fixed ring wherever defined
        cocy = cocycle_table(alg, p.chars, comp, fixed, D)
        assert cocy.normal is True, name
        if all(f is not None for f in comp.f):
            assert cocy.complete, name

        # the pairing of component generators is nondegenerate, and the
        # two-sided factorization through the top component holds
        frob = frobenius_pairing(alg, p.chars, comp, hdet.char_index)
        assert frob.verdict != "no", name
        if frob.verdict == "yes":
            assert frob.identity_holds, name

        # the Jacobian factors through the simple reflections when the
        # grading group supplies them
        stein = steinberg_factorization(alg, p.chars, comp, jac.j, hdet.char_index)
        assert stein.verdict != "no", name
        if p.action.kind == "dual_group":
            assert stein.verdict == "yes", name

    # the Jacobian of the grouplike-isotypic subalgebra is the restriction
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    tr = jacobian_transfer(p.chars, comp, fixed, jac.j, D)
    assert tr.jacobians_proportional is True


# ---------------------------------------------------------------------------
# the twisting automorphism of the skew plane


def test_nakayama_twist_on_the_skew_plane():
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    alg = p.algebra
    images = p.options["nakayama"]
    assert images == [{0: ZERO - I}, {1: I}]  # u -> -i u, v -> i v

    naka = nakayama_check(p.action, p.chars, fixed, hdet.char_index,
                          jac.j, jac.a, images, D, hdet.koszul_top)
    assert naka.failures == []
    assert naka.is_automorphism is True
    assert naka.twisted_action_identity is True
    assert naka.fixes_fixed_ring is True
    assert naka.scales_jacobian is True
    assert naka.scales_arrangement is True
    assert naka.induced_is_identity is True
    assert naka.index_additive is True
    assert sum(fixed.gen_degrees) == 6 == hdet.koszul_top + jac.j.degree


# ---------------------------------------------------------------------------
# the Hopf data itself: axioms, integral, characters, and a planted error


def test_hopf_verification_and_corruption_witness():
    hopf = kac_palyutkin_hopf()
    assert hopf.verify() == []
    assert hopf.integral() == {i: Cyc.rational(1, 8) for i in range(8)}

    chars = kac_palyutkin_characters(hopf)
    grp = chars.group
    assert grp.order == 4
    assert is_abelian(grp)
    assert all(grp.table[i][i] == grp.identity for i in range(4))

    mone, mi = ZERO - ONE, ZERO - I
    values = {ch.label: ch.values for ch in chars.chars}
    assert values["eps"] == [ONE] * 8
    assert values["g"] == [ONE, ONE, ONE, ONE, mone, mone, mone, mone]
    assert values["gp"] == [ONE, mone, mone, ONE, mi, I, I, mi]
    assert values["ggp"] == [a * b for a, b in zip(values["g"], values["gp"])]

    # breaking one coproduct row must be caught with a named witness
    z = hopf.labels.index("z")
    bad_comult = [list(row) for row in hopf.comult]
    bad_comult[z] = [(z, z, ONE)]
    bad = HopfAlgebra(hopf.labels, hopf.unit, hopf.mult, bad_comult,
                      hopf.counit, hopf.antipode)
    witnesses = bad.verify()
    assert witnesses != []
    assert any("z" in w for w in witnesses)


# ---------------------------------------------------------------------------
# independent oracles reproduce the engine and the stored dimension tables


def _d8(i: int, j: int) -> tuple[int, int]:
    return i % 4, j % 2


def _d8_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # elements p^i r^j with r p = p^-1 r
    return _d8((a[0] + (b[0] if a[1] == 0 else -b[0])), a[1] + b[1])


def _d8_word(grades: list[tuple[int, int]]) -> tuple[int, int]:
    out = (0, 0)
    for g in grades:
        out = _d8_mul(out, g)
    return out


_P, _R = (1, 0), (0, 1)
_RP, _RP2 = _d8_mul(_R, _P), _d8_mul(_R, _d8_mul(_P, _P))

# relation tables for the brute-force free-slice oracle, re-entered by hand
_MONE = ZERO - ONE
_ORACLE_RELATIONS = {
    "trivial": (2, [{(1, 0): ONE, (0, 1): _MONE}]),
    "e42-kacpalyutkin": (2, [{(1, 0): ONE, (0, 1): ZERO - I}]),
    "e23-downup-dualD8": (2, [{(1, 0, 0): ONE, (0, 0, 1): _MONE},
                              {(1, 1, 0): ONE, (0, 1, 1): _MONE}]),
    "l41-cyclic-n-m(z3,2,3)": (2, [{(1, 0): ONE, (0, 1): ZERO - zeta(3)}]),
    "l41-mystic(1,2)": (2, [{(1, 0): ONE, (0, 1): ONE}]),
    "l41-mystic(2,4)": (2, [{(1, 0): ONE, (0, 1): ONE}]),
    "e22-dualD8": (3, [{(2, 0): ONE, (0, 2): ONE},
                       {(1, 0): ONE, (2, 1): _MONE},
                       {(1, 2): ONE, (0, 1): _MONE}]),
}


def _e22_fixed_count(d: int) -> int:
    # monomials z^a x^b y^c whose dihedral grade is trivial; the three
    # relations sort every word into this shape (x z -> -z x, y x -> z y,
    # y z -> x y under the letter order z < x < y, overlaps resolving
    # consistently), which the free-slice oracle confirms below
    n = 0
    for a in range(d + 1):
        for b in range(d + 1 - a):
            c = d - a - b
            if _d8_word([_RP2] * a + [_R] * b + [_RP] * c) == (0, 0):
                n += 1
    return n


def test_independent_oracles_match_engine():
    # the general smash-product radical agrees with the slice-by-slice
    # intersection shortcut on every dual-group example
    for name in catalog.shipped():
        p, comp, fixed, hdet, jac = bundle(name)
        if p.action.kind != "dual_group":
            continue
        rad = radical_slices(p.action, D)
        short = dual_group_shortcut(p.algebra, comp.slices, D)
        assert all(rad.slices[d] == short[d] for d in range(D + 1)), name

    # closed-form dimension counts for every stored table
    two_letter = [d + 1 for d in range(D + 1)]
    algebra_counts = {
        "trivial": two_letter,
        "e42-kacpalyutkin": two_letter,
        "l41-cyclic-n-m(z3,2,3)": two_letter,
        "l41-mystic(1,2)": two_letter,
        "l41-mystic(2,4)": two_letter,
        "e23-downup-dualD8": [(d + 2) ** 2 // 4 for d in range(D + 1)],
        "e22-dualD8": [comb(d + 2, 2) for d in range(D + 1)],
    }
    fixed_counts = {
        "trivial": two_letter,
        "e42-kacpalyutkin": [sum(1 for a in range(d // 2 + 1) if (d - 2 * a) % 4 == 0)
                             for d in range(D + 1)],
        "l41-cyclic-n-m(z3,2,3)": [sum(1 for a in range(d + 1) if a % 2 == 0 and (d - a) % 3 == 0)
                                   for d in range(D + 1)],
        "e22-dualD8": [_e22_fixed_count(d) for d in range(D + 1)],
    }

    # brute-force elimination over all free words of each degree; the
    # three-letter example is cut off where the word count explodes
    for name, (nletters, rels) in _ORACLE_RELATIONS.items():
        top = D if nletters == 2 else 8
        oracle = QuotientOracle(nletters, rels)
        dims = [oracle.dim(d) for d in range(top + 1)]
        assert dims == algebra_counts[name][:top + 1], name
        p, comp, fixed, hdet, jac = bundle(name)
        assert p.algebra.hilbert(D) == algebra_counts[name], name
        if name == "e23-downup-dualD8":
            # grade each oracle normal word through the dihedral group and
            # count the trivially graded ones
            grade = {0: _P, 1: _R}
            counted = []
            for d in range(D + 1):
                normal = oracle.slice(d)[3]
                counted.append(sum(1 for w in normal
                                   if _d8_word([grade[i] for i in w]) == (0, 0)))
            fixed_counts[name] = counted

    # every stored dimension table is reproduced by the matching count
    for name in catalog.shipped():
        fixture = json.loads(catalog.fixture_path(name).read_text())
        pins = {e["path"]: e for e in fixture["expected"]
                if e["path"].startswith("/hilbert")}
        assert pins, name
        assert all(e["tag"] == "derived" for e in pins.values()), name
        assert pins["/hilbert/algebra"]["value"] == algebra_counts[name], name
        if "/hilbert/fixed" in pins:
            assert pins["/hilbert/fixed"]["value"] == fixed_counts[name], name
        p, comp, fixed, hdet, jac = bundle(name)
        assert fixed.dims == fixed_counts.get(name, fixed.dims), name
