"""Degree-one divisor lines in candidate and certificate modes."""

from __future__ import annotations

import pytest

from ncreflect.divisors import (
    candidate_lines,
    divisor_report,
    form_degree,
)
from ncreflect.invariants import (
    component_report,
    fixed_ring,
    homological_determinant,
    jacobian_data,
)
from ncreflect.presets import catalog
from ncreflect.presets.kac import skew_plane
from ncreflect.scalars import Cyc, I, ONE, ZERO, zeta

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
        _CACHE[key] = (p, comp, fixed, hdet, jac)
    return _CACHE[key]


def line_set(report):
    return {tuple(sorted((k, c.key()) for k, c in e.vec.items())) for e in report.lines}


def as_set(elems):
    return {tuple(sorted((k, c.key()) for k, c in e.vec.items())) for e in elems}


# ---------------------------------------------------------------------------
# the skew plane under the eight-dimensional Hopf algebra: left and right
# divisor sets of the Jacobian differ


def test_kac_jacobian_divisors_left_and_right():
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    alg = p.algebra
    z = zeta(8)
    z3 = z * z * z
    z5 = z3 * z * z
    z7 = z5 * z * z
    u, v = alg.element("u"), alg.element("v")
    expect_left = [u, v, u + v.scale(z3), u + v.scale(z7)]
    expect_right = [u, v, u + v.scale(z), u + v.scale(z5)]
    for mode in ("candidates", "certificate"):
        left = divisor_report(alg, jac.j, "left", mode=mode, conductor=8)
        right = divisor_report(alg, jac.j, "right", mode=mode, conductor=8)
        assert line_set(left) == as_set(expect_left)
        assert line_set(right) == as_set(expect_right)
        assert line_set(left) != line_set(right)
    cert_l = divisor_report(alg, jac.j, "left", mode="certificate", conductor=8)
    cert_r = divisor_report(alg, jac.j, "right", mode="certificate", conductor=8)
    assert not cert_l.residual_warning and not cert_r.residual_warning
    # st(t^2 + i s^2) and st(t^2 - i s^2) up to the monic normalisation
    assert cert_l.certificate == [ZERO, -I, ZERO, ONE, ZERO]
    assert cert_r.certificate == [ZERO, I, ZERO, ONE, ZERO]


def test_kac_divisors_invariant_under_rescaling():
    p, comp, fixed, hdet, jac = bundle("e42-kacpalyutkin")
    scaled = jac.j.scale(Cyc.rational(-7, 3))
    a = divisor_report(p.algebra, jac.j, "left", mode="certificate", conductor=8)
    b = divisor_report(p.algebra, scaled, "left", mode="certificate", conductor=8)
    assert line_set(a) == line_set(b)
    assert a.certificate == b.certificate


def test_degree_one_and_degree_two_self_divisors():
    alg = skew_plane(8)
    u = alg.element("u")
    for mode in ("candidates", "certificate"):
        rep = divisor_report(alg, u, "left", mode=mode, conductor=8)
        assert line_set(rep) == as_set([u])
        rep2 = divisor_report(alg, alg.element("u^2"), "left", mode=mode, conductor=8)
        assert line_set(rep2) == as_set([u])
    assert divisor_report(alg, alg.element("u^2"), "right", mode="certificate", conductor=8).lines == [u]


# ---------------------------------------------------------------------------
# three generators: candidates mode only


def test_dihedral3_divisors_are_the_generators():
    p, comp, fixed, hdet, jac = bundle("e22-dualD8", 6)
    alg = p.algebra
    gens = [alg.element(n) for n in ("x", "y", "z")]
    for f in (jac.j, jac.a):
        left = divisor_report(alg, f, "left", mode="candidates", conductor=4)
        right = divisor_report(alg, f, "right", mode="candidates", conductor=4)
        assert line_set(left) == as_set(gens)
        assert line_set(right) == as_set(gens)
    with pytest.raises(ValueError):
        divisor_report(alg, jac.j, "left", mode="certificate", conductor=4)
    # the degree-one component generators sit inside both divisor sets
    degree_one = [f for f in comp.f if f is not None and f.degree == 1]
    assert as_set(degree_one) == as_set(gens)


# ---------------------------------------------------------------------------
# the two scaling families


def test_cyclic_family_divisors():
    p, comp, fixed, hdet, jac = bundle("l41-cyclic-n-m(z3,2,3)")
    alg = p.algebra
    gens = [alg.element("x"), alg.element("y")]
    for mode in ("candidates", "certificate"):
        rj = divisor_report(alg, jac.j, "left", mode=mode, conductor=3)
        ra = divisor_report(alg, jac.a, "left", mode=mode, conductor=3)
        assert line_set(rj) == as_set(gens)
        assert line_set(ra) == as_set(gens)
        # lines dividing the arrangement element divide the Jacobian
        assert line_set(ra) <= line_set(rj)
    assert divisor_report(alg, jac.j, "right", mode="certificate", conductor=3).lines == gens
    cert = divisor_report(alg, jac.j, "left", mode="certificate", conductor=3)
    assert not cert.residual_warning


def test_mystic_family_divisors():
    p, comp, fixed, hdet, jac = bundle("l41-mystic(2,4)", 12)
    alg = p.algebra
    x, y = alg.element("x"), alg.element("y")
    z4 = zeta(4)
    expected = [x, y]
    root = ONE
    for _ in range(4):
        expected.append(x + y.scale(root))
        root = root * z4
    for mode in ("candidates", "certificate"):
        left = divisor_report(alg, jac.j, "left", mode=mode, conductor=4)
        right = divisor_report(alg, jac.j, "right", mode=mode, conductor=4)
        assert line_set(left) == as_set(expected)
        assert line_set(right) == as_set(expected)
    cert = divisor_report(alg, jac.j, "left", mode="certificate", conductor=4)
    assert not cert.residual_warning
    assert form_degree(cert.certificate) == 6


# ---------------------------------------------------------------------------
# honesty of the certificate residual


def test_certificate_residual_warning_and_extra_candidates():
    alg = catalog.build("trivial", 6).algebra  # the commutative plane
    f = alg.element("x^2 + 2*x*y")  # (x + 2y) x, and x + 2y is not a root of unity line
    rep = divisor_report(alg, f, "left", mode="certificate", conductor=4)
    assert line_set(rep) == as_set([alg.element("x")])
    assert rep.residual_warning and rep.residual_degree == 1
    extra = (alg.element("x + 2*y"),)
    rep2 = divisor_report(alg, f, "left", mode="certificate", conductor=4, extra_candidates=extra)
    assert line_set(rep2) == as_set([alg.element("x"), alg.element("x + 2*y")])
    assert not rep2.residual_warning
    # candidates mode silently reports only what it can see
    rep3 = divisor_report(alg, f, "left", mode="candidates", conductor=4, extra_candidates=extra)
    assert line_set(rep3) == line_set(rep2)


def test_candidate_family_is_deduplicated():
    alg = catalog.build("trivial", 6).algebra
    fam = candidate_lines(alg, 4)
    assert len(fam) == 6  # x, y, x+y, x+iy, x-y, x-iy
    fam2 = candidate_lines(alg, 4, (alg.element("x + y"), alg.element("3*x + 3*y")))
    assert len(fam2) == 6
