import json
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from ncreflect.exprs import parse
from ncreflect.hopf import (
    Character,
    CharacterGroup,
    Group,
    HopfAction,
    HopfAlgebra,
    central_idempotents,
    dual_group_algebra,
    dual_group_characters,
    group_algebra,
    group_linear_characters,
    winding_left_cols,
    winding_right_cols,
)
from ncreflect.linalg import Matrix, Subspace, apply_cols, eigen_images, kernel, vec_addto
from ncreflect.ncalg import GradedAlgebra
from ncreflect.presentation import loads, realize
from ncreflect.presets import catalog
from ncreflect.presets.groups import cyclic_scaling_group, dihedral8, mystic_group
from ncreflect.presets.kac import (
    kac_palyutkin_action,
    kac_palyutkin_characters,
    kac_palyutkin_hopf,
    skew_plane,
)
from ncreflect import analysis, ncalg, scalars
from ncreflect.scalars import Cyc, I, MINUS_ONE, ONE, ZERO, zeta

from oracles import (
    S3_PERMUTING_XYZ,
    change_of_basis,
    columns_by_terms,
    commutator_subgroup,
    dense_eigenvectors,
    direct_product,
    greedy_generating_set,
    group_table_id,
    group_tables,
    index_by_key,
    is_abelian,
    kac_palyutkin_idempotents,
    keyed_character_table,
    linear_characters_by_enumeration,
    normal_forms,
    signs_v4_spec,
    small_permutation_groups,
    symmetric3,
    tensor_mul_per_pair,
    unmarked,
)


# -- groups -------------------------------------------------------------------


def test_cyclic_and_product_groups():
    c6 = Group.cyclic(6)
    assert c6.order == 6
    assert c6.element_order(1) == 6
    assert c6.inverse[1] == 5
    c2xc3 = direct_product(Group.cyclic(2, "s"), Group.cyclic(3, "t"))
    assert c2xc3.order == 6
    assert is_abelian(c2xc3)
    assert sorted(c2xc3.element_order(g) for g in range(6)) == [1, 2, 3, 3, 6, 6]


def test_dihedral8():
    d8 = dihedral8()
    assert d8.order == 8
    assert not is_abelian(d8)
    p, r = d8.labels.index("p"), d8.labels.index("r")
    assert d8.element_order(p) == 4
    assert d8.element_order(r) == 2
    # r p r = p^{-1}
    assert d8.table[d8.table[r][p]][r] == d8.inverse[p]


def test_matrix_group_closure():
    group, rep, gens = cyclic_scaling_group(2, 3)
    assert group.order == 6
    assert is_abelian(group)
    group16, rep16, _ = mystic_group(2, 4)
    assert group16.order == 16
    assert not is_abelian(group16)
    with pytest.raises(ValueError):
        mystic_group(4, 6)  # beta must be divisible by alpha


def test_group_validation():
    with pytest.raises(ValueError):
        Group(["a", "b"], [[0, 1], [1, 1]])  # b*b = b: no inverse structure


# -- Hopf algebra axioms ------------------------------------------------------


def test_group_algebra_axioms():
    for g in (Group.cyclic(4), dihedral8()):
        h = group_algebra(g)
        assert HopfAlgebra.verify(h) == []
        lam = h.integral()
        assert lam == {i: Cyc.rational(1, g.order) for i in range(g.order)}


def test_dual_group_algebra_axioms():
    g = dihedral8()
    h = dual_group_algebra(g)
    assert HopfAlgebra.verify(h) == []
    assert h.integral() == {g.identity: ONE}


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_group_tables_give_hopf_algebras(group):
    """kG and k^G hold their group and verify to no witnesses by
    construction; the base body of verify is the oracle of that."""
    for build in (group_algebra, dual_group_algebra):
        h = build(group)
        assert h.group is group
        assert h.verify() == HopfAlgebra.verify(h) == []


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_marked_dual_group_skips_match_the_full_paths(group):
    """On k^G, central_idempotents returns the point masses and the
    action check skips the module law; the unmarked twin takes the full
    paths, which agree: on projectors, and on the witnesses of a
    G-graded and of a non-graded relation."""
    h = dual_group_algebra(group)
    chars = dual_group_characters(h)
    n, g = group.order, 1 % group.order
    alg = GradedAlgebra(["x", "y"], [parse("x*y - y*x", ["x", "y"]),
                                     parse("x*x + y*y", ["x", "y"])], max_degree=3)
    action = HopfAction.from_grading(h, alg, [g, group.inverse[g]])
    derived = central_idempotents(h, chars), action.verify()
    plain, plain_action, plain_chars = unmarked(
        SimpleNamespace(hopf=h, action=action, chars=chars))
    full = central_idempotents(plain, plain_chars), plain_action.verify()
    assert derived == full
    assert derived[0] == [{k: ONE} for k in range(n)]
    # x*x + y*y is G-homogeneous exactly when g^2 = g^-2
    homogeneous = group.table[g][g] == group.table[group.inverse[g]][group.inverse[g]]
    assert (derived[1] == []) == homogeneous


def test_marked_dual_group_refuses_a_character_that_is_no_evaluation():
    """A value list that is not evaluation at one g is no algebra map of
    k^G: it takes the full path, which refuses it."""
    g = Group.cyclic(3)
    h = dual_group_algebra(g)
    two_points = Character(h, [ONE, ONE, ZERO], "e+g")
    with pytest.raises(ValueError, match="fails h p"):
        central_idempotents(h, SimpleNamespace(chars=[two_points]))


def _regular_action(h: HopfAlgebra) -> HopfAction:
    """kG acting on x_0, ..., x_{n-1} by g·x_j = x_{gj}, given on the
    generators of kG, with the relations x_0² and, for n > 1, [x_0, x_1],
    which every g but e moves out of the relation ideal."""
    group = h.group
    n = group.order
    names = [f"x{i}" for i in range(n)]
    rels = [parse("x0*x0", names)] + ([parse("x0*x1 - x1*x0", names)] if n > 1 else [])
    alg = GradedAlgebra(names, rels, max_degree=2)
    mats = {s: Matrix([[ONE if i == group.table[s][j] else ZERO for j in range(n)]
                       for i in range(n)]) for s in h.generators()}
    return HopfAction.from_group_matrices(h, alg, mats)


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_marked_group_algebra_closed_forms_match_the_full_paths(group):
    """On kG the integral and the projectors are read off the table and
    the action check skips the module law; the unmarked twin takes the
    full paths, which agree on all three."""
    h = group_algebra(group)
    chars = group_linear_characters(h)
    action = _regular_action(h)
    derived = h.integral(), central_idempotents(h, chars), action.verify()
    plain, plain_action, plain_chars = unmarked(
        SimpleNamespace(hopf=h, action=action, chars=chars))
    full = plain.integral(), central_idempotents(plain, plain_chars), plain_action.verify()
    assert derived == full
    assert derived[0] == {g: Cyc.rational(1, group.order) for g in range(group.order)}
    # every g but e moves x_0² out of the ideal, so both lists hold witnesses
    assert [w for w in derived[2] if w.endswith("relation 0")] == [
        f"{group.labels[g]} does not preserve relation 0"
        for g in range(group.order) if g != group.identity]


@pytest.mark.parametrize("group, values", [
    (Group.cyclic(3), [ONE, ONE, zeta(3)]),          # not multiplicative on g·g
    (Group.cyclic(3), [ONE, zeta(3), zeta(3)]),      # g² gets ζ where ζ² is due
    (Group.cyclic(3), [Cyc.rational(2), ONE, ONE]),  # 2 at e fails every edge g·e
    (small_permutation_groups()["S3"], [ONE, MINUS_ONE] + [ONE] * 4),  # one transposition
], ids=["c3-gg", "c3-g2", "c3-e", "s3-one-transposition"])
def test_marked_group_algebra_refuses_a_value_list_that_is_no_homomorphism(group, values):
    """A value list that is not a homomorphism G -> k^x is no algebra map
    of kG: it takes the full path, which refuses it."""
    h = group_algebra(group)
    with pytest.raises(ValueError, match="fails h p"):
        central_idempotents(h, SimpleNamespace(chars=[Character(h, values, "bad")]))


def test_only_the_group_constructors_mark_h():
    """Only group_algebra and dual_group_algebra build the types that hold
    a group, and the action kinds group and dual_group refuse any other
    H, the same structure constants included."""
    d8 = dihedral8()
    kg = group_algebra(d8)
    rebuilt = HopfAlgebra(kg.labels, kg.unit, kg.mult, kg.comult, kg.counit, kg.antipode)
    for h in (rebuilt, kac_palyutkin_hopf()):
        assert type(h) is HopfAlgebra and not hasattr(h, "group")
    assert not hasattr(kg, "dual") and not hasattr(dual_group_algebra(d8), "dual")
    alg = GradedAlgebra(["x"], [], max_degree=1)
    images = [[{0: ONE}] for _ in range(d8.order)]
    with pytest.raises(ValueError, match="a group action needs a GroupAlgebra"):
        HopfAction(rebuilt, alg, "group", gen_images=images)
    with pytest.raises(ValueError, match="a dual_group action needs a DualGroupAlgebra"):
        HopfAction(kg, alg, "dual_group", grading=[0])


def test_kac_palyutkin_axioms_and_integral():
    h = kac_palyutkin_hopf()
    assert h.verify() == []
    assert h.integral() == {i: Cyc.rational(1, 8) for i in range(8)}
    # S is the identity except for swapping xz and yz
    assert h.antipode[5] == {6: ONE} and h.antipode[6] == {5: ONE}
    # z^2 = (1+x+y-xy)/2
    half = Cyc.rational(1, 2)
    assert h.mult[4][4] == {0: half, 1: half, 2: half, 3: -half}


def test_corrupted_comultiplication_is_caught():
    h = kac_palyutkin_hopf()
    z = 4
    broken = [list(t) for t in h.comult]
    broken[z] = [(a, b, (-c if (a, b) == (6, 4) else c)) for a, b, c in broken[z]]
    bad = HopfAlgebra(h.labels, h.unit, h.mult, broken, h.counit, h.antipode)
    failures = bad.verify()
    assert failures
    assert any("z" in f for f in failures)


# -- characters ---------------------------------------------------------------


def test_kac_palyutkin_character_group_is_klein_four():
    h = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(h)
    assert len(chars) == 4
    g = chars.group
    assert g.labels == ["eps", "g", "gp", "ggp"]
    assert all(g.element_order(i) in (1, 2) for i in range(4))
    index = g.labels.index
    assert g.table[index("g")][index("gp")] == index("ggp")


def test_character_values_on_z():
    h = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(h).chars
    z = 4
    assert [c.values[z] for c in chars] == [ONE, MINUS_ONE, -I, I]


def test_dual_group_characters_mirror_the_group():
    g = dihedral8()
    h = dual_group_algebra(g)
    chars = dual_group_characters(h)
    assert chars.group.labels == g.labels
    assert chars.group.table == g.table


def test_group_linear_characters():
    c2xc3 = direct_product(Group.cyclic(2, "s"), Group.cyclic(3, "t"))
    h = group_algebra(c2xc3)
    chars = group_linear_characters(h)
    assert len(chars) == 6  # abelian: all characters are linear
    d8 = dihedral8()
    chars8 = group_linear_characters(group_algebra(d8))
    assert len(chars8) == 4  # abelianisation is Klein four
    assert sum(1 for ch in chars8.chars if ch.label == "triv") == 1


LINEAR_CHARACTER_GROUPS = {
    **{f"C{n}": lambda n=n: Group.cyclic(n) for n in range(1, 13)},
    "D8": dihedral8,
    "C2xC2": lambda: direct_product(Group.cyclic(2, "a"), Group.cyclic(2, "b")),
    "C4xC6": lambda: direct_product(Group.cyclic(4, "a"), Group.cyclic(6, "b")),
    "S3xC4": lambda: direct_product(symmetric3(), Group.cyclic(4, "c")),
    "D8xC3": lambda: direct_product(dihedral8(), Group.cyclic(3, "c")),
    "cyclic(z3,2,3)": lambda: cyclic_scaling_group(2, 3)[0],
    **{f"mystic({a},{b})": lambda a=a, b=b: mystic_group(a, b)[0]
       for a, b in ((1, 2), (2, 4), (2, 8), (4, 4))},
}


# the groups of trivial, l41-cyclic-n-m(z3,2,3) and l41-mystic(a,b)
PRESET_CHARACTER_COUNTS = {"C1": 1, "cyclic(z3,2,3)": 6, "mystic(1,2)": 4,
                           "mystic(2,4)": 8, "mystic(2,8)": 8, "mystic(4,4)": 8}


@pytest.mark.parametrize("name", sorted(LINEAR_CHARACTER_GROUPS))
def test_linear_characters_are_the_abelianisation(name):
    """The characters found by propagating over the Cayley edges are
    homomorphisms on every pair of elements, pairwise distinct, and as
    many as |G : [G, G]|, so every linear character is found; the
    algebra generators of kG are the greedy generating set of G."""
    g = LINEAR_CHARACTER_GROUPS[name]()
    h = group_algebra(g)
    assert h.generators() == greedy_generating_set(g)
    chars = group_linear_characters(h)
    for ch in chars.chars:
        v = ch.values
        assert all(v[g.table[a][b]] == v[a] * v[b]
                   for a in range(g.order) for b in range(g.order))
    assert all(a != b for a, b in combinations(chars.chars, 2))
    assert len(chars) * len(commutator_subgroup(g)) == g.order
    if name in PRESET_CHARACTER_COUNTS:
        assert len(chars) == PRESET_CHARACTER_COUNTS[name]


# cyclic groups whose greedy generating set has three or more elements,
# small enough for the enumeration of every assignment (under 1 s each)
CYCLIC_MATRIX_GROUPS = {
    f"cyclic({n},{m})": lambda n=n, m=m: cyclic_scaling_group(n, m)[0]
    for n, m in ((1, 8), (1, 12), (3, 4), (2, 9), (1, 16))
}


@pytest.mark.parametrize("name", sorted(LINEAR_CHARACTER_GROUPS) + sorted(CYCLIC_MATRIX_GROUPS))
def test_linear_characters_match_the_enumeration(name):
    """Extending one generator at a time finds the characters that trying
    every assignment to all generators at once finds, with the same
    labels, values and convolution table: sorting by the values on the
    generators is sorting by the values on the whole basis."""
    g = {**LINEAR_CHARACTER_GROUPS, **CYCLIC_MATRIX_GROUPS}[name]()
    h = group_algebra(g)
    if name in CYCLIC_MATRIX_GROUPS:
        assert len(h.generators()) >= 3
    chars = group_linear_characters(h)
    want = linear_characters_by_enumeration(h)
    assert [ch.label for ch in chars.chars] == [ch.label for ch in want]
    assert [ch.values for ch in chars.chars] == [ch.values for ch in want]
    assert chars.group.table == keyed_character_table(h, want)


@pytest.mark.parametrize("group", group_tables(), ids=group_table_id)
def test_character_tables_read_off_the_group_match_the_convolution(group, monkeypatch):
    """The characters of kG and of k^G are built with no convolution and
    no duplicate scan: the table of k^G is G's own, kG's characters
    multiply pointwise, and both lists are distinct by construction.  The
    convolution table of the same characters agrees, and without a table
    a repeated character is refused."""
    for build, characters in ((group_algebra, group_linear_characters),
                              (dual_group_algebra, dual_group_characters)):
        h = build(group)
        with monkeypatch.context() as m:
            m.setattr(Character, "convolve", None)
            m.setattr(CharacterGroup, "_find", None)
            chars = characters(h)
        assert chars.group.table == CharacterGroup(h, chars.chars).group.table
        with pytest.raises(ValueError, match="duplicate characters"):
            CharacterGroup(h, chars.chars + chars.chars[-1:])


@pytest.mark.parametrize("name", catalog.shipped())
def test_index_of_matches_the_keyed_scan(name):
    """The table and index_of agree with the lookup by keys on the whole
    basis, and a map that agrees with a character on the generators of H
    but not on the whole basis is refused by both."""
    preset = catalog.build(name, max_degree=4)
    h, chars = preset.hopf, preset.chars
    assert chars.group.table == keyed_character_table(h, chars.chars)
    for a in chars.chars:
        for b in chars.chars:
            prod = a.convolve(b)
            assert chars.index_of(prod) == index_by_key(chars, prod)
    off = next(i for i in range(h.dim) if i not in h.generators())
    for ch in chars.chars:
        values = list(ch.values)
        values[off] = values[off] + ONE
        for lookup in (chars.index_of, lambda c: index_by_key(chars, c)):
            with pytest.raises(ValueError, match="character not in group"):
                lookup(Character(h, values))


@pytest.mark.parametrize("name", catalog.shipped())
def test_tensor_mul_matches_the_per_pair_form(name):
    """Products in H ⊗ H added term by term through the fused a + x·c
    kernel give the entries and normal forms of one dict of products per
    pair of terms, added unfused: on Δ(b_i)Δ(b_j) for every basis pair,
    on seeded sums, and on (1⊗1 − x)(1⊗1 + x), whose terms x cancel
    when H is not a dual group algebra (in k^G a product of basis tensors
    is zero or the one tensor they share, so no two terms meet) and not
    the trivial one (x = 1⊗1)."""
    preset = catalog.build(name, max_degree=4)
    h = preset.hopf

    def same(s: dict, t: dict) -> bool:
        """Checks one product; True if some of its terms cancel."""
        got = h.tensor_mul(s, t)
        assert normal_forms(got) == normal_forms(tensor_mul_per_pair(h, s, t))
        return len(got) < len({(p, q) for a, b in s for c, d in t
                               for p in h.mult[a][c] for q in h.mult[b][d]})

    deltas = [h.comult_vec(h.basis_vec(i)) for i in range(h.dim)]
    for s in deltas:
        for t in deltas:
            same(s, t)
    rng = random.Random(19)
    coeffs = [ONE, MINUS_ONE, I, Cyc.rational(1, 2)]
    for _ in range(40):
        same(*({(rng.randrange(h.dim), rng.randrange(h.dim)): rng.choice(coeffs)
                for _ in range(rng.randint(1, 4))} for _ in range(2)))
    one = {(p, q): up * uq for p, up in h.unit.items() for q, uq in h.unit.items()}
    cancelled = 0
    for _ in range(4):
        x = (rng.randrange(h.dim), rng.randrange(h.dim))
        minus, plus = dict(one), dict(one)
        vec_addto(minus, {x: MINUS_ONE})
        vec_addto(plus, {x: ONE})
        cancelled += same(minus, plus)
    assert cancelled or h.dim == 1 or preset.action.kind == "dual_group"


def test_character_group_makes_no_subfield_solve(monkeypatch):
    """CharacterGroup compares values with ==, so it never asks for a
    Cyc.key and solves no subfield membership, on every shipped preset
    and on the order-32 group of conductor 288; that whole build solves
    at most once per character and generator of H."""
    calls, inside = [], []
    solve = scalars._express_in_subfield
    monkeypatch.setattr(scalars, "_express_in_subfield",
                        lambda *args: calls.append(args) or solve(*args))
    init = CharacterGroup.__init__

    def counted(self, *args):
        before = len(calls)
        init(self, *args)
        inside.append(len(calls) - before)

    monkeypatch.setattr(CharacterGroup, "__init__", counted)
    for name in catalog.shipped():
        catalog.build(name, max_degree=4)
    assert inside == [0] * len(catalog.shipped())
    calls.clear()
    preset = catalog.build("l41-cyclic-n-m(z9,1,32)", max_degree=2)
    assert inside[-1] == 0
    assert len(calls) <= len(preset.chars) * len(preset.hopf.generators())


def test_winding_composition():
    h = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(h)
    for a in chars.chars:
        for b in chars.chars:
            ab = a.convolve(b)
            cols_a = winding_right_cols(h, a)
            cols_b = winding_right_cols(h, b)
            cols_ab = winding_right_cols(h, ab)
            for i in range(h.dim):
                two_step = apply_cols(cols_a, apply_cols(cols_b, {i: ONE}))
                assert two_step == apply_cols(cols_ab, {i: ONE})


def test_winding_left_right_agree_on_cocommutative():
    g = Group.cyclic(4)
    h = group_algebra(g)
    chars = group_linear_characters(h)
    for ch in chars.chars:
        assert winding_left_cols(h, ch) == winding_right_cols(h, ch)


def test_central_idempotents_match_closed_forms():
    h = kac_palyutkin_hopf()
    chars = kac_palyutkin_characters(h)
    derived = central_idempotents(h, chars)
    assert derived == kac_palyutkin_idempotents()


def test_dual_group_idempotents_are_point_masses():
    g = dihedral8()
    h = dual_group_algebra(g)
    chars = dual_group_characters(h)
    ps = central_idempotents(h, chars)
    assert ps == [{i: ONE} for i in range(8)]


@pytest.mark.parametrize("name", catalog.shipped())
def test_integral_is_idempotent(name):
    """integral() checks only h Λ = ε(h) Λ = Λ h and ε(Λ) = 1; Λ² = Λ
    follows and is not checked there."""
    h = catalog.build(name, max_degree=4).hopf
    lam = h.integral()
    assert h.counit_vec(lam) == ONE
    assert h.mul_vec(lam, lam) == lam


@pytest.mark.parametrize("name", catalog.shipped())
def test_left_winding_of_the_integral_is_the_inverse_projector(name):
    """Σ χ(Λ₍₁₎)Λ₍₂₎ = p_{χ⁻¹}: the H-part of (1#Λ)(a#1) on a component
    (docs/radical-spanning.md, "S_d over the components")."""
    preset = catalog.build(name, max_degree=4)
    h, chars = preset.hopf, preset.chars
    ps = central_idempotents(h, chars)
    delta = h.comult_vec(h.integral())
    for i, ch in enumerate(chars.chars):
        wound = {}
        for (h1, h2), c in delta.items():
            vec_addto(wound, {h2: ONE}, c * ch.values[h1])
        assert wound == ps[chars.group.inverse[i]]


@pytest.mark.parametrize("name", catalog.shipped())
def test_right_winding_of_the_integral_is_the_inverse_projector(name):
    """Λ↼χ = Σ Λ₍₁₎χ(Λ₍₂₎) = p_{χ⁻¹}: the element of H that the line part
    (1#Λ)(a#p_χ) = (Λ↼χ)·a # p_χ applies to a (docs/radical-spanning.md,
    "S_d over the components")."""
    preset = catalog.build(name, max_degree=4)
    h, chars = preset.hopf, preset.chars
    ps = central_idempotents(h, chars)
    delta = h.comult_vec(h.integral())
    for i, ch in enumerate(chars.chars):
        wound = {}
        for (h1, h2), c in delta.items():
            vec_addto(wound, {h1: ONE}, c * ch.values[h2])
        assert wound == ps[chars.group.inverse[i]]


@pytest.mark.parametrize("name", catalog.shipped())
def test_central_idempotents_have_the_implied_properties(name, monkeypatch):
    """central_idempotents checks only h p = chi(h) p = p h; the rest
    follows, chi_j(p_i) = delta_ij among it.  Each p is a central
    idempotent, the p are orthogonal, and dim H of them sum to 1."""
    preset = catalog.build(name, max_degree=4)
    h, chars = preset.hopf, preset.chars
    ps = central_idempotents(h, chars)
    for i, p in enumerate(ps):
        assert h.mul_vec(p, p) == p
        for b in range(h.dim):
            assert h.mul_vec(p, h.basis_vec(b)) == h.mul_vec(h.basis_vec(b), p)
        for j, q in enumerate(ps):
            assert chars.chars[j](p) == (ONE if i == j else ZERO)
            if i != j:
                assert h.mul_vec(p, q) == {}
    if len(chars) == h.dim:
        total = {}
        for p in ps:
            vec_addto(total, p)
        assert total == h.unit
    if h.dim > 1:
        # the winding of the unit is the unit, which no character of a
        # nontrivial H singles out; kG and k^G read no integral, so the
        # full path runs on the unmarked twin
        plain, _, plain_chars = unmarked(preset)
        monkeypatch.setattr(HopfAlgebra, "integral", lambda self: dict(self.unit))
        with pytest.raises(ValueError):
            central_idempotents(plain, plain_chars)


# -- actions ------------------------------------------------------------------


def test_kac_palyutkin_action_on_generators():
    h = kac_palyutkin_hopf()
    alg = skew_plane()
    act = kac_palyutkin_action(h, alg)
    assert act.verify() == []
    z, xz = 4, 5
    u2 = alg.element("u^2")
    v2 = alg.element("v^2")
    uv = alg.element("u*v")
    assert act.act(z, u2.vec, 2) == v2.vec
    assert act.act(z, uv.vec, 2) == {k: -I * c for k, c in uv.vec.items()}
    assert act.act(xz, alg.element("v").vec, 1) == {0: MINUS_ONE}


def test_eigenvectors_of_action_columns_match_dense_kernel():
    h = kac_palyutkin_hopf()
    alg = skew_plane()
    act = kac_palyutkin_action(h, alg)
    for ch in kac_palyutkin_characters(h).chars:
        for d in range(5):
            maps = [(act.columns(hh, d), ch.values[hh]) for hh in range(8)]
            got, want = kernel(eigen_images(alg.dim(d), maps)), dense_eigenvectors(alg.dim(d), maps)
            assert len(got) == len(want)
            assert Subspace.span(alg.dim(d), got) == Subspace.span(alg.dim(d), want)


def test_module_algebra_violation_is_reported():
    # swapping u and v does not preserve v*u - i*u*v
    alg = skew_plane(max_degree=6)
    c2 = Group.cyclic(2, "s")
    h = group_algebra(c2)
    act = HopfAction.from_group_matrices(h, alg, {1: Matrix([[0, 1], [1, 0]])})
    failures = act.verify()
    assert any("relation" in f for f in failures)


def test_group_matrix_consistency_check():
    alg = skew_plane(max_degree=6)
    c2 = Group.cyclic(2, "s")
    h = group_algebra(c2)
    with pytest.raises(ValueError, match="inconsistent action: two routes to e disagree"):
        # matrix of order 4 assigned to an element of order 2
        HopfAction.from_group_matrices(h, alg, {1: Matrix([[I, 0], [0, 1]])})


def test_dual_group_action_fast_path_matches_generic():
    g = Group.cyclic(3)
    alg = GradedAlgebra(["x", "y"], [parse("x*y - y*x", ["x", "y"])], max_degree=6)
    h = dual_group_algebra(g)
    fast = HopfAction.from_grading(h, alg, [1, 2])
    generic = HopfAction.from_matrices(
        h, alg, [[fast.gen_images[k][i] for i in range(2)] for k in range(3)]
    )
    assert fast.verify() == []
    for hh in range(3):
        for d in range(5):
            assert fast.columns(hh, d) == generic.columns(hh, d)


def test_dual_group_action_rejects_inhomogeneous_relations():
    g = Group.cyclic(2)
    # x*y + y^2 is not homogeneous for deg x = g, deg y = e
    alg = GradedAlgebra(["x", "y"], [parse("x*y + y*y", ["x", "y"])], max_degree=6)
    act = HopfAction.from_grading(dual_group_algebra(g), alg, [1, 0])
    assert act.verify()


def test_act_free_matches_slice_action():
    h = kac_palyutkin_hopf()
    alg = skew_plane()
    act = kac_palyutkin_action(h, alg)
    for hh in range(8):
        poly = parse("u*v + 2*v*u - u^2", ["u", "v"])
        free_img = act.act_free(hh, poly)
        _, direct = alg.nf(free_img)
        _, vec = alg.nf(poly)
        assert act.act(hh, vec, 2) == direct


# -- the action on A_d, one product per second leg -----------------------------

ACTION_D = 12


def _shipped_non_dual(name):
    return lambda: catalog.build(name, ACTION_D).action


def _unmarked_twin(name):
    return lambda: unmarked(catalog.build(name, ACTION_D))[1]


def _from_spec(doc):
    return lambda: realize(loads(doc), ACTION_D).action


def _e42_rebased(seed, fix_unit):
    return lambda: change_of_basis(catalog.build("e42-kacpalyutkin", ACTION_D).action,
                                   seed, fix_unit)


# seeds 0 and 6 are ones where some grouped left factor cancels to 0
ACTION_CASES = {
    **{name: _shipped_non_dual(name) for name in catalog.shipped()
       if catalog.build(name, 4).action.kind != "dual_group"},
    "unmarked-e22": _unmarked_twin("e22-dualD8"),
    "unmarked-e23": _unmarked_twin("e23-downup-dualD8"),
    "s3-permuting-xyz": _from_spec(S3_PERMUTING_XYZ),
    "signs-v4-weights-2-2": _from_spec(json.dumps(signs_v4_spec((2, 2)))),
    "e42-rebased-unit-fixed": _e42_rebased(0, True),
    "e42-rebased-unit-mixed": _e42_rebased(6, False),
}


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_columns_match_one_product_per_term(case):
    """Grouping Δ(h) by second leg and letting the unit act as the identity
    give the columns of the plain recursion, for every basis element of
    H on every slice through D = 12."""
    action = ACTION_CASES[case]()
    for d in range(ACTION_D + 1):
        for h in range(action.hopf.dim):
            assert action.columns(h, d) == columns_by_terms(action, h, d), (h, d)
    if case.startswith("e42-rebased"):
        assert action.verify() == []
        legs = {(h, i): {q for _, q, _ in action.hopf.comult[h]}
                for h in range(action.hopf.dim) for i in range(action.alg.ngens)}
        assert any(len(action._left_factors(h)[i]) < len(qs) for (h, i), qs in legs.items())
        assert action._identity == ({0} if case.endswith("fixed") else set())


# products ``HopfAction.columns`` forms in one ``analyze`` at D = 12
COLUMN_PRODUCTS = {
    "trivial": 0,
    "e22-dualD8": 0,
    "e23-downup-dualD8": 0,
    "e42-kacpalyutkin": 477,
    "l41-cyclic-n-m(z3,2,3)": 207,
    "l41-mystic(1,2)": 185,
    "l41-mystic(2,4)": 745,
}


@pytest.mark.parametrize("name", sorted(COLUMN_PRODUCTS))
def test_column_products_per_analysis(name, monkeypatch):
    depth, count = [0], [0]
    columns, mul = HopfAction.columns, ncalg.GradedAlgebra.mul

    def counted_columns(self, h, degree):
        depth[0] += 1
        try:
            return columns(self, h, degree)
        finally:
            depth[0] -= 1

    def counted_mul(self, *args):
        count[0] += depth[0] > 0
        return mul(self, *args)

    monkeypatch.setattr(HopfAction, "columns", counted_columns)
    monkeypatch.setattr(ncalg.GradedAlgebra, "mul", counted_mul)
    analysis.analyze(catalog.build(name, ACTION_D), ACTION_D)
    assert count[0] == COLUMN_PRODUCTS[name]


def _two_element_h(delta_unit, counit_unit):
    """H on the basis 1, g, with Δ(1) and ε(1) as given, 1 fixing x and y
    and g negating them: a table no verified H has, for the unit rule."""
    h = HopfAlgebra(["1", "g"], {0: ONE}, [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE}]],
                    [delta_unit, [(1, 1, ONE)]], [counit_unit, ONE], [{0: ONE}, {1: ONE}])
    alg = GradedAlgebra(["x", "y"], [parse("y*x - x*y", ["x", "y"])], max_degree=6)
    x, y = alg.nf_word((0,)), alg.nf_word((1,))
    minus = {k: -c for k, c in x.items()}, {k: -c for k, c in y.items()}
    return HopfAction.from_matrices(h, alg, [[x, y], list(minus)])


@pytest.mark.parametrize("delta_unit, counit_unit", [
    ([(0, 0, ONE), (1, 1, ONE)], ONE),  # Δ(1) = 1 ⊗ 1 + g ⊗ g
    ([(0, 0, ONE), (0, 0, ONE)], ONE),  # Δ(1) = 2 · 1 ⊗ 1, in two rows
    ([(0, 0, ONE)], ZERO),              # ε(1) = 0
])
def test_unit_rule_needs_all_three_facts(delta_unit, counit_unit):
    """A basis element that fixes every letter acts as the identity only
    with Δ(u) = u ⊗ u and ε(u) = 1; otherwise its columns come from the
    recursion and are not the identity."""
    action = _two_element_h(delta_unit, counit_unit)
    assert action._identity == set()
    for d in range(5):
        assert action.columns(0, d) == columns_by_terms(action, 0, d)
    assert action.columns(0, 1) != [{0: ONE}, {1: ONE}]


def test_unit_rule_fires_on_a_grouplike_that_fixes_the_letters():
    action = _two_element_h([(0, 0, ONE)], ONE)
    assert action._identity == {0}
    for d in range(5):
        assert action.columns(0, d) == [{k: ONE} for k in range(action.alg.dim(d))]
        assert action.columns(0, d) == columns_by_terms(action, 0, d)
