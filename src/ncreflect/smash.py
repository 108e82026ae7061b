"""Degree-truncated smash product A # H and the ideals it carries.

The slice of A-degree d is A_d tensor H with coordinates
a_index * dim H + h_index.  On top of the multiplication this module
computes the pertinency ideal (the two-sided ideal generated by 1 # Λ),
its trace on A (the radical ideal), the dual-group shortcut, the rife
checks at the Hopf and at the action level, the dis-radical inside the
fixed ring, and the principal-generator search for the radical.

The pertinency slices come from ``ncalg``'s left-ideal recursion, run on
the letters of A lifted to A # H (``SmashProduct.left_letter``), started
at S_d = (1#Λ)(A_d # H).  Given the character components of A, S_d is
spanned through them: on A_ψ the product (1#Λ)(a#1) is a # (ψ⇀Λ), so
each component costs one product and only a complement of their sum is
multiplied out.  Given central idempotents of H, the H-coordinates run
over a basis adapted to them, so that the ideal splits into blocks and
each echelon row stays inside one.  The trace on A is read off the
residues of the a # 1 modulo a slice: the linear relations among them
are the a with a # 1 in the slice, whatever the unit of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hopf import CharacterGroup, HopfAction, HopfAlgebra
from .linalg import Expressor, Subspace, Vec, intersect_all, vec_addto
from .ncalg import (
    Elem,
    GradedAlgebra,
    is_normal,
    left_ideal_slices,
    monic,
    mul_elem_space,
    push_left,
    two_sided_ideal_slices,
)
from .scalars import ONE


class SmashProduct:
    """A # H, one homogeneous A-degree at a time.

    ``idempotents`` are orthogonal central idempotents E of H; with
    1 − Σ E, when it is not zero, they make the blocks.  The H-coordinates
    of the slices run over a basis adapted to the blocks: block by block,
    the reduced echelon basis of the ideal HE.  Without idempotents the
    one block is H and the basis is that of H.  ``mul`` takes its first
    factor in the basis of H, and its second factor and the product in
    the adapted one.
    """

    def __init__(self, action: HopfAction, idempotents: Sequence[Vec] = ()):
        self.action = action
        self.alg = action.alg
        self.hopf = hopf = action.hopf
        self.nH = nH = hopf.dim
        self.weights = action.alg.weights
        blocks = list(idempotents)
        rest = dict(hopf.unit)
        for e in blocks:
            vec_addto(rest, e, -ONE)
        if rest:
            blocks.append(rest)
        self.basis: list[Vec] = []  # the adapted basis, in the basis of H
        self.block_of: list[int] = []
        self._coords: list[Vec] = [{} for _ in range(nH)]  # of each basis vector of H
        for b, e in enumerate(blocks):
            # h = Σ_E hE, and hE has coordinate (hE)[p] at each pivot p of HE
            products = [hopf.mul_vec(hopf.basis_vec(h), e) for h in range(nH)]
            rows = Subspace.span(nH, products).basis()
            pivots = [min(row) for row in rows]
            for h, he in enumerate(products):
                for j, p in enumerate(pivots, len(self.basis)):
                    if p in he:
                        self._coords[h][j] = he[p]
            self.basis.extend(rows)
            self.block_of.extend([b] * len(rows))
        if len(self.basis) != nH:
            raise ValueError("the blocks of the idempotents do not add up to H")
        self._unit = self.coords(hopf.unit)
        self._legs_of: dict[tuple, dict[int, Vec]] = {}

    def coords(self, hvec: Vec) -> Vec:
        """Coordinates of an element of H over the adapted basis."""
        out: Vec = {}
        for h, c in hvec.items():
            vec_addto(out, self._coords[h], c)
        return out

    def dim(self, degree: int) -> int:
        return self.alg.dim(degree) * self.nH

    def include_a(self, vec: Vec, degree: int) -> Vec:
        """a # 1."""
        out: Vec = {}
        for i, c in vec.items():
            for h, x in self._unit.items():
                out[i * self.nH + h] = c * x
        return out

    def include_h(self, hvec: Vec) -> Vec:
        """1 # h in degree zero (A_0 = k), in the basis of H."""
        return {h: c for h, c in hvec.items()}

    def unit_integral(self) -> Vec:
        return self.include_h(self.hopf.integral())

    def mul(self, v: Vec, dv: int, w: Vec, dw: int) -> Vec:
        """(a#h)(b#k) = Σ a (h_(1)·b) # h_(2) k, one action of A per
        first leg h_(1) (``_legs``)."""
        alg, nH = self.alg, self.nH
        right = _h_parts(w, nH)
        out: Vec = {}
        for i, h in _h_parts(v, nH).items():
            for j, k in right.items():
                for h1, leg in self._legs(h, k).items():
                    amul = alg.mul({i: ONE}, dv, self.action.columns(h1, dw)[j], dw)
                    for hi, hc in leg.items():
                        vec_addto(out, {ai * nH + hi: ac for ai, ac in amul.items()}, hc)
        return out

    def _legs(self, h: Vec, k: Vec) -> dict[int, Vec]:
        """Δ(h)(1 ⊗ k) gathered by its first leg, {h_(1): Σ h_(2) k over
        the adapted basis}, for h over the basis of H and k over the
        adapted one.  All the products (1#Λ)(a#1) of a slice share one
        pair, so each pair is worked out once."""
        key = (tuple(h.items()), tuple(k.items()))
        legs = self._legs_of.get(key)
        if legs is None:
            hopf = self.hopf
            right: Vec = {}  # k over the basis of H
            for j, c in k.items():
                vec_addto(right, self.basis[j], c)
            legs = {}
            for g, c1 in h.items():
                for h1, h2, c in hopf.comult[g]:
                    vec_addto(legs.setdefault(h1, {}),
                              self.coords(hopf.mul_vec(hopf.basis_vec(h2), right)), c1 * c)
            legs = self._legs_of[key] = {h1: leg for h1, leg in legs.items() if leg}
        return legs

    def left_letter(self, i: int, degree: int) -> list[Vec]:
        """Columns of (x_i # 1) * (-) : A_degree # H -> A_{degree + w_i} # H."""
        nH = self.nH
        return [{ai * nH + h: ac for ai, ac in col.items()}
                for col in self.alg.left_letter(i, degree) for h in range(nH)]


def _h_parts(vec: Vec, nH: int) -> dict[int, Vec]:
    """A vector of A_d # H as {A-index: its H-part}."""
    out: dict[int, Vec] = {}
    for key, c in vec.items():
        i, h = divmod(key, nH)
        out.setdefault(i, {})[h] = c
    return out


def integral_span_slices(sm: SmashProduct, max_degree: int,
                         components: Sequence[Sequence[Subspace]] = ()) -> list[Subspace]:
    """S_d = (1#Λ)(A_d # H), spanned by the (1#Λ)(a#1) over a basis of A_d:
    A_d # H = (1#H)(A_d # 1) and Λh = counit(h)Λ
    (docs/radical-spanning.md, step 1).

    The basis of A_d runs through the given H-eigenspaces first.  On an
    eigenspace A_ψ, (1#Λ)(a#1) = a # λ with λ = ψ⇀Λ, so each eigenspace
    costs one product, read at the pivot of its first basis vector, and
    its other vectors are re-keyed.  Only the unit vectors off the pivots
    of their sum are multiplied out (docs/radical-spanning.md, "S_d over
    the components").  Without eigenspaces every basis vector is.
    """
    lam, nH = sm.unit_integral(), sm.nH

    def times_integral(a: Vec, d: int) -> Vec:
        return sm.mul(lam, 0, sm.include_a(a, d), d)

    parts: dict[int, Vec] = {}  # λ of each eigenspace, over the adapted basis
    out = []
    for d in range(max_degree + 1):
        vecs, eigen = [], Subspace(sm.alg.dim(d))
        for c, slices in enumerate(components):
            for a in slices[d].basis():
                if c not in parts:
                    k = min(a)  # a reduced echelon row: a[k] = 1
                    parts[c] = {key - k * nH: x for key, x in times_integral(a, d).items()
                                if key // nH == k}
                vecs.append({i * nH + h: x * y for i, x in a.items()
                             for h, y in parts[c].items()})
                eigen.add(a)
        pivots = {min(a) for a in eigen.basis()}
        vecs.extend(times_integral({i: ONE}, d)
                    for i in range(sm.alg.dim(d)) if i not in pivots)
        out.append(Subspace.span(sm.dim(d), vecs))
    return out


def pertinency_slices(sm: SmashProduct, max_degree: int,
                      components: Sequence[Sequence[Subspace]] = ()) -> list[Subspace]:
    """Slices of (A#H)(1#Λ)(A#H).

    Left factors collapse to A # Λ because h·Λ = counit(h)Λ, so the slice
    in A-degree d is sum_e A_e · S_{d-e} with S as above; the sum is built
    by the usual generated-in-positive-degree recursion.
    """
    out = integral_span_slices(sm, max_degree, components)
    for d in range(max_degree + 1):
        push_left(sm, out, d, out[d])
    return out


def _trace_on_a(sm: SmashProduct, space: Subspace, degree: int) -> Subspace:
    """{a in A_d : a # 1 in space}: the relations among the residues of
    the a # 1 modulo the slice."""
    dim = sm.alg.dim(degree)
    residues = [space.reduce(sm.include_a({i: ONE}, degree)) for i in range(dim)]
    return Subspace.span(dim, Expressor(sm.dim(degree), residues).relations())


@dataclass
class RadicalData:
    slices: list[Subspace]
    quotient_dims: list[int]


def radical_slices(action: HopfAction, max_degree: int,
                   projectors: Sequence[Vec] = (),
                   components: Sequence[Sequence[Subspace]] = ()) -> RadicalData:
    """Trace of the pertinency ideal on A, degree by degree.

    Given the verified character projectors, the ideal is computed in the
    blocks that they and 1 − Σ p_χ cut out of H.  The trace and the
    codimensions are those of the one block H (docs/radical-spanning.md,
    "The pertinency ideal splits along central idempotents").  Given the
    character components, S_d is spanned through them
    (``integral_span_slices``).
    """
    sm = SmashProduct(action, projectors)
    pert = pertinency_slices(sm, max_degree, components)
    slices = [_trace_on_a(sm, pert[d], d) for d in range(max_degree + 1)]
    qdims = [sm.dim(d) - pert[d].dim for d in range(max_degree + 1)]
    return RadicalData(slices, qdims)


def dual_group_shortcut(
    alg: GradedAlgebra, comp_slices: list[list[Subspace]], max_degree: int
) -> list[Subspace]:
    """For dual group actions the radical equals the intersection of the
    left ideals A·A_g over the component grading.  A component holding 1
    gives A·A_g = A and is skipped (docs/radical-spanning.md)."""
    ideals = []
    for slices in comp_slices:
        if slices[0].dim:
            continue
        gens = [
            Elem(alg, d, v)
            for d in range(max_degree + 1)
            for v in slices[d].basis()
        ]
        ideals.append(left_ideal_slices(alg, gens, max_degree))
    return [
        intersect_all(alg.dim(d), [ideal[d] for ideal in ideals])
        for d in range(max_degree + 1)
    ]


# ---------------------------------------------------------------------------
# rife checks


def commutator_ideal(hopf: HopfAlgebra) -> Subspace:
    """Ideal closure of the span of all basis commutators."""
    space = Subspace(hopf.dim)
    for i in range(hopf.dim):
        for j in range(i + 1, hopf.dim):
            com = dict(hopf.mult[i][j])
            vec_addto(com, hopf.mult[j][i], -ONE)
            space.add(com)
    while True:
        before = space.dim
        for v in list(space.basis()):
            for b in range(hopf.dim):
                space.add(hopf.mul_vec({b: ONE}, v))
                space.add(hopf.mul_vec(v, {b: ONE}))
        if space.dim == before:
            return space


def rife_hopf_check(
    hopf: HopfAlgebra, chars: CharacterGroup, idempotents: list[Vec]
) -> bool:
    """Δ(Λ) = Σ_g p_g ⊗ p_{g⁻¹} + X with X in I_com ⊗ I_com."""
    residual = dict(hopf.comult_vec(hopf.integral()))
    g0 = chars.group
    for g in range(g0.order):
        p, q = idempotents[g], idempotents[g0.inverse[g]]
        vec_addto(residual, {(i, j): a * b for i, a in p.items() for j, b in q.items()},
                  -ONE)
    if not residual:
        return True
    icom = commutator_ideal(hopf)
    basis = icom.basis()
    ambient = Subspace(hopf.dim * hopf.dim)
    for u in basis:
        for w in basis:
            ambient.add({i * hopf.dim + j: a * b
                         for i, a in u.items() for j, b in w.items()})
    flat = {i * hopf.dim + j: c for (i, j), c in residual.items()}
    return ambient.contains(flat)


@dataclass
class RifeData:
    hopf_rife: bool
    j_normal: bool
    radical_is_jacobian_ideal: bool
    action_rife: bool
    radical_inside_left_ideal: bool | None  # only asserted when hopf_rife


def rife_action_check(
    action: HopfAction,
    chars: CharacterGroup,
    idempotents: list[Vec],
    j: Elem,
    radical: list[Subspace],
    max_degree: int,
) -> RifeData:
    alg = action.alg
    hopf_rife = rife_hopf_check(action.hopf, chars, idempotents)
    # is_normal reads A only in its generator degrees
    whole = {g: alg.slice_space(g) for g in set(alg.weights) if g <= max_degree}
    j_normal = is_normal(alg, j, whole, whole.keys(), max_degree)
    # a normal j has AjA = Aj up to the bound (docs/component-grading.md)
    left = left_ideal_slices(alg, [j], max_degree) if j_normal or hopf_rife else None
    ideal = left if j_normal else two_sided_ideal_slices(alg, [j], max_degree)
    is_ideal = all(ideal[d] == radical[d] for d in range(max_degree + 1))
    contained = None
    if hopf_rife:
        contained = all(radical[d] <= left[d] for d in range(max_degree + 1))
    return RifeData(hopf_rife, j_normal, is_ideal,
                    hopf_rife and j_normal and is_ideal, contained)


# ---------------------------------------------------------------------------
# dis-radical and the principal generator


@dataclass
class DisRadicalData:
    dims: list[int]
    first_degree: int | None
    generator: Elem | None
    principal: bool


def dis_radical(
    alg: GradedAlgebra,
    radical: list[Subspace],
    fixed_slices: list[Subspace],
    max_degree: int,
) -> DisRadicalData:
    """Slice-wise intersection of the radical with the fixed ring and a
    search for a single principal generator."""
    slices = [radical[d].intersect(fixed_slices[d]) for d in range(max_degree + 1)]
    dims = [s.dim for s in slices]
    first = next((d for d in range(max_degree + 1) if dims[d]), None)
    if first is None:
        return DisRadicalData(dims, None, None, False)
    if dims[first] != 1:
        return DisRadicalData(dims, first, None, False)
    gen = monic(alg, first, slices[first].basis()[0])
    principal = all(
        mul_elem_space(alg, gen, fixed_slices[d - first], d - first) == slices[d]
        for d in range(first, max_degree + 1)
    )
    return DisRadicalData(dims, first, gen, principal)


@dataclass
class PrincipalRadicalData:
    generator: Elem | None
    normal: bool | None
    reason: str


def principal_radical(
    alg: GradedAlgebra, radical: list[Subspace], max_degree: int
) -> PrincipalRadicalData:
    """If the lowest nonzero radical slice is a line spanned by w, test
    that w is normal and that (w) matches the radical slice-for-slice."""
    first = next((d for d in range(max_degree + 1) if radical[d].dim), None)
    if first is None:
        return PrincipalRadicalData(None, None, "radical is zero up to the bound")
    if radical[first].dim != 1:
        return PrincipalRadicalData(
            None, None,
            f"lowest nonzero slice (degree {first}) has dimension "
            f"{radical[first].dim}",
        )
    w = monic(alg, first, radical[first].basis()[0])
    whole = {g: alg.slice_space(g) for g in set(alg.weights) if g <= max_degree}
    if not is_normal(alg, w, whole, whole.keys(), max_degree):
        return PrincipalRadicalData(w, False, "lowest generator is not normal")
    ideal = left_ideal_slices(alg, [w], max_degree)  # AwA = Aw for a normal w
    for d in range(max_degree + 1):
        if ideal[d] != radical[d]:
            return PrincipalRadicalData(
                w, True, f"(w) differs from the radical in degree {d}"
            )
    return PrincipalRadicalData(w, True, "")
