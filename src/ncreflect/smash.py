"""Degree-truncated smash product A # H and the ideals it carries.

The slice of A-degree d is A_d tensor H with coordinates
a_index * dim H + h_index.  On top of the multiplication this module
computes the pertinency ideal (the two-sided ideal generated by 1 # Λ),
its trace on A (the radical ideal), the dual-group shortcut, the rife
checks at the Hopf and at the action level, the dis-radical inside the
fixed ring, and the principal-generator search for the radical.

The pertinency ideal P is the left A-submodule of A # H = A^{dim H} that
the S_d = (1#Λ)(A_d # H) generate.  It is kept by its quotient module
(A#H)/P (``ncalg.QuotientModule``), whose dimension stays at the
codimension of P_d while A_d # H grows; P_d itself is never eliminated.
S_d is formed degree by degree only until W consecutive degrees, W the
largest generator weight, add nothing to the module: the S_e below them
then generate P, and the module is built on from its relation rows alone.
Given the character components of A, S_d is
spanned through them: on A_ψ the product (1#Λ)(a#1) is a # (ψ⇀Λ), so
each component costs one product and only a complement of their sum is
multiplied out.  Given central idempotents of H, the H-coordinates run
over a basis adapted to them, so that the ideal splits into blocks and
each echelon row stays inside one; the block of a character projector is
a line, read off the character.  With both, a complement vector is
multiplied out in the block of 1 − Σ p_χ alone: its part in the line of
p_χ lies in A_{χ⁻¹} # p_χ, which the rows of the component of χ⁻¹ span.
The trace on A is the kernel of a ↦ π(a # 1), read off one echelon of
the images of the basis words (``linalg.kernel``), with π(x_i u # 1) =
X_i π(u # 1) through the letter maps of the module, whatever the unit
of H.  The dual-group shortcut ∩_{g≠e} A·A_g is read off the same way:
it is the kernel of a ↦ π(a ⊗ Σ_g e_g) on the quotient module
⊕_{g≠e} A/A·A_g, built from the G-grading with no generator rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .hopf import Character, CharacterGroup, HopfAction, HopfAlgebra, commutator_ideal
from .linalg import Subspace, Vec, apply_cols, kernel, vec_addto, vec_scale
from .ncalg import (
    CopyGrading,
    Elem,
    GradedAlgebra,
    QuotientModule,
    is_normal,
    left_ideal_slices,
    monic,
    mul_elem_space,
    two_sided_ideal_slices,
)
from .scalars import Cyc, ONE, addmul


class SmashProduct:
    """A # H, one homogeneous A-degree at a time.

    ``projectors`` are the verified projectors p_χ of ``characters``, in
    order; with 1 − Σ p_χ, when it is not zero, they make the blocks.
    The H-coordinates of the slices run over a basis adapted to the
    blocks: block by block, the reduced echelon basis of the ideal HE.
    Since h p_χ = χ(h) p_χ, the block of p_χ is the line through it, and
    h has coordinate χ(h)·p_χ[min p_χ] on it, read off without a product;
    only 1 − Σ p_χ is multiplied out (docs/radical-spanning.md, "The
    basis of a one-dimensional block").  ``complement`` holds the
    coordinates of 1 − Σ p_χ.  Without projectors the one block is H,
    the basis is that of H, and ``complement`` is the unit.  ``mul`` takes
    its first factor in the basis of H, and its second factor and the
    product in the adapted one.
    """

    def __init__(self, action: HopfAction, projectors: Sequence[Vec] = (),
                 characters: Sequence[Character] = ()):
        self.action = action
        self.alg = action.alg
        self.hopf = hopf = action.hopf
        self.nH = nH = hopf.dim
        self.weights = action.alg.weights
        self.basis: list[Vec] = []  # the adapted basis, in the basis of H
        self._coords: list[Vec] = [{} for _ in range(nH)]  # of each basis vector of H
        rest = dict(hopf.unit)
        for b, (e, ch) in enumerate(zip(projectors, characters, strict=True)):
            vec_addto(rest, e, -ONE)
            lead = e[min(e)]
            for h, x in enumerate(ch.values):
                if not x.is_zero():
                    self._coords[h][b] = x * lead
            self.basis.append(vec_scale(e, lead.inverse()))
        self.block_of: list[int] = list(range(len(self.basis)))
        if rest:
            # h = Σ_E hE, and hE has coordinate (hE)[p] at each pivot p of HE
            products = [hopf.mul_vec(hopf.basis_vec(h), rest) for h in range(nH)]
            rows = Subspace.span(nH, products).basis()
            pivots = [min(row) for row in rows]
            for h, he in enumerate(products):
                for j, p in enumerate(pivots, len(self.basis)):
                    if p in he:
                        self._coords[h][j] = he[p]
            self.basis.extend(rows)
            self.block_of.extend([len(projectors)] * len(rows))
        if len(self.basis) != nH:
            raise ValueError("the blocks of the idempotents do not add up to H")
        self._unit = self.coords(hopf.unit)
        # the part of the unit in the last block
        self.complement = {j: x for j, x in self._unit.items()
                           if self.block_of[j] == len(projectors)}
        self._legs_of: dict[tuple, dict[int, Vec]] = {}

    def coords(self, hvec: Vec) -> Vec:
        """Coordinates of an element of H over the adapted basis."""
        out: Vec = {}
        for h, c in hvec.items():
            vec_addto(out, self._coords[h], c)
        return out

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
        first leg h_(1) (``_legs``).  For a of degree 0, a is the unit of
        A and a (h_(1)·b) is the action column itself."""
        alg, nH = self.alg, self.nH
        right = _h_parts(w, nH)
        out: Vec = {}
        for i, h in _h_parts(v, nH).items():
            for j, k in right.items():
                for h1, leg in self._legs(h, k).items():
                    amul = self.action.columns(h1, dw)[j]
                    if dv:
                        amul = alg.mul({i: ONE}, dv, amul, dw)
                    for ai, ac in amul.items():
                        base = ai * nH
                        for hi, hc in leg.items():
                            key = base + hi
                            new = addmul(out.get(key), ac, hc)
                            if new is None:
                                del out[key]
                            else:
                                out[key] = new
        return out

    def _legs(self, h: Vec, k: Vec) -> dict[int, Vec]:
        """Δ(h)(1 ⊗ k) gathered by its first leg, {h_(1): Σ h_(2) k over
        the adapted basis}, for h over the basis of H and k over the
        adapted one.  All the products (1#Λ)(a#1) of a slice share one
        pair, so each pair is worked out once."""
        key = (_nf_key(h), _nf_key(k))
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


def _nf_key(vec: Vec) -> tuple:
    """A hashable key of a vector by the normal forms of its entries, with
    no ``Cyc.key`` solve: equal keys mean equal vectors, and equal vectors
    written over different conductors only miss a cache."""
    return tuple((i, x.n, x.nums, x.den) for i, x in vec.items())


def _h_parts(vec: Vec, nH: int) -> dict[int, Vec]:
    """A vector of A_d # H as {A-index: its H-part}."""
    out: dict[int, Vec] = {}
    for key, c in vec.items():
        i, h = divmod(key, nH)
        out.setdefault(i, {})[h] = c
    return out


def integral_span_slices(sm: SmashProduct, max_degree: int,
                         components: Sequence[Sequence[Subspace]] = ()) -> Iterator[list[Vec]]:
    """Vectors spanning S_d = (1#Λ)(A_d # H), yielded degree by degree
    and formed only when asked for: the (1#Λ)(a#1) over a basis of A_d
    span it, since A_d # H = (1#H)(A_d # 1) and Λh = counit(h)Λ
    (docs/radical-spanning.md, step 1).  No echelon of S_d is built.

    The basis of A_d runs through the given H-eigenspaces first.  On an
    eigenspace A_ψ, (1#Λ)(a#1) = a # λ with λ = ψ⇀Λ, so each eigenspace
    costs one product, read at the pivot of its first basis vector, and
    its other vectors are re-keyed.  Only the unit vectors e_i off the
    pivots of their sum are multiplied out, and only their part
    (1#Λ)(e_i # (1 − Σ p_χ)) in the complement block: the part in the
    line of p_χ lies in A_{χ⁻¹} # p_χ, which the rows of A_{χ⁻¹} span
    (docs/radical-spanning.md, "S_d over the components").  For that the
    eigenspaces must be the whole components of every character of
    ``sm``, as ``analyze`` passes them.  Without eigenspaces every basis
    vector is multiplied out, by the whole unit of H.
    """
    lam, nH = sm.unit_integral(), sm.nH
    unit = sm.complement if components else sm._unit
    parts: dict[int, Vec] = {}  # λ of each eigenspace, over the adapted basis
    for d in range(max_degree + 1):
        vecs, rows = [], []
        for c, slices in enumerate(components):
            for a in slices[d].basis():
                if c not in parts:
                    k = min(a)  # a reduced echelon row: a[k] = 1
                    parts[c] = {key - k * nH: x
                                for key, x in sm.mul(lam, 0, sm.include_a(a, d), d).items()
                                if key // nH == k}
                vecs.append({i * nH + h: x * y for i, x in a.items()
                             for h, y in parts[c].items()})
                rows.append(a)
        eigen = Subspace.span(sm.alg.dim(d), rows)
        pivots = {min(a) for a in eigen.basis()}
        vecs.extend(sm.mul(lam, 0, {i * nH + h: y for h, y in unit.items()}, d)
                    for i in range(sm.alg.dim(d)) if i not in pivots)
        yield vecs


def pertinency_slices(sm: SmashProduct, max_degree: int,
                      components: Sequence[Sequence[Subspace]] = ()) -> QuotientModule:
    """The pertinency ideal P = (A#H)(1#Λ)(A#H), kept by its quotient
    module (A#H)/P.

    Left factors collapse to A # Λ because h·Λ = counit(h)Λ, so P is the
    left A-submodule of A # H = A^{dim H} that the S_d generate, and
    (A#H)/P is ``ncalg.QuotientModule`` with n = dim H and G_d the
    spanning vectors of S_d (docs/radical-spanning.md, "The pertinency
    ideal by its quotient module").  S_d is formed only until the S_e of
    W consecutive degrees, W the largest generator weight, add nothing to
    the module: the S_e below them then generate P, and the degrees above
    are built from the relation rows alone (docs/radical-spanning.md,
    "Where the generators of P stop").
    """
    module = QuotientModule(sm.alg, sm.nH, ())
    width, quiet = max(sm.weights), 0
    for gens in integral_span_slices(sm, max_degree, components):
        quiet = 0 if module.extend(gens) else quiet + 1
        if quiet == width:
            break
    while len(module.dims) <= max_degree:
        module.extend(())
    return module


def _trace_on_a(module: QuotientModule, unit: Vec, max_degree: int) -> list[Subspace]:
    """{a in A_d : π(a ⊗ u) = 0} in every degree, for u = Σ_h unit[h] e_h
    in k^n: the kernel of a ↦ π(a ⊗ u), read off the images of the basis
    words by ``linalg.kernel``, with π(x_i w ⊗ u) = X_i π(w ⊗ u).  For
    the pertinency module and u the unit of H it is the trace of P on A;
    for the graded module of the dual-group shortcut and u = Σ_g e_g it
    is ∩_{g≠e} A·A_g."""
    alg = module.alg
    images = [[{}]]  # images[d][k] = π(w_k ⊗ u)
    for h, x in unit.items():
        vec_addto(images[0][0], module.image(0, 0, h), x)
    out = []
    for d in range(max_degree + 1):
        if d:
            row = []
            for word in alg.basis_words(d):
                e = d - alg.weights[word[0]]
                row.append(apply_cols(module.letter(word[0], e),
                                      images[e][alg.word_index(e, word[1:])]))
            images.append(row)
        out.append(Subspace.echelon(alg.dim(d), kernel(images[d])))
    return out


@dataclass
class RadicalData:
    slices: list[Subspace]
    quotient_dims: list[int]


def radical_slices(action: HopfAction, max_degree: int,
                   projectors: Sequence[Vec] = (),
                   components: Sequence[Sequence[Subspace]] = (),
                   characters: Sequence[Character] = ()) -> RadicalData:
    """Trace of the pertinency ideal on A, degree by degree.

    Given the verified character projectors and their characters, the
    ideal is computed in the blocks that they and 1 − Σ p_χ cut out of H
    (``SmashProduct``).  The trace and the codimensions are those of the
    one block H (docs/radical-spanning.md, "The pertinency ideal splits
    along central idempotents").  Given the character components, S_d is
    spanned through them (``integral_span_slices``); with projectors, they
    must be the whole eigenspaces of ``characters``, in order.  The
    codimension of P_d is the dimension of the quotient module in degree d.
    """
    sm = SmashProduct(action, projectors, characters)
    module = pertinency_slices(sm, max_degree, components)
    return RadicalData(_trace_on_a(module, sm._unit, max_degree), list(module.dims))


def dual_group_shortcut(action: HopfAction, max_degree: int) -> RadicalData:
    """For a dual-group action of k^G, A is G-graded and the radical is
    ∩_{g≠e} A·A_g, the kernel of A → ⊕_{g≠e} A/A·A_g.  That is
    ``_trace_on_a`` at u = Σ_g e_g on the quotient module with one copy
    per g ≠ e, built from the G-grading with no generator rows: copy g
    drops its G-degree-g block, which is the image of A_g modulo the
    G-homogeneous relation rows (docs/radical-spanning.md, "The
    dual-group radical by its quotient module").  A relation that is not
    G-homogeneous raises ValueError.  ``quotient_dims`` are the
    codimensions of the radical slices."""
    alg, group = action.alg, action.group
    killed = [g for g in range(group.order) if g != group.identity]
    n = len(killed)
    grading = CopyGrading(action.grading, group.table, group.identity, killed)
    module = QuotientModule(alg, n, [()] * (max_degree + 1), grading)
    slices = _trace_on_a(module, {h: ONE for h in range(n)}, max_degree)
    return RadicalData(slices, [alg.dim(d) - s.dim for d, s in enumerate(slices)])


# ---------------------------------------------------------------------------
# rife checks


def rife_hopf_check(
    hopf: HopfAlgebra, chars: CharacterGroup, idempotents: list[Vec] | None = None
) -> bool:
    """H is Hopf-rife when Δ(Λ) = Σ_χ p_χ ⊗ p_χ⁻¹ + X with X in I_com ⊗ I_com.

    With ``idempotents`` None the p_χ are the projectors of ``chars`` that
    ``central_idempotents`` verified, and the test is a block count: H is
    Hopf-rife exactly when dim I_com + |chars| = dim H, with no product at
    all when there are dim H characters (docs/component-grading.md,
    "Hopf-rife is a block count"); ``hopf.commutator_dim`` reads dim I_com
    off the table on kG and k^G.  Declared idempotents are not
    assumed to be projectors and take the residual test,
    X = Δ(Λ) − Σ p_χ ⊗ p_χ⁻¹ read row by row and column by column
    (``_in_square``)."""
    if idempotents is None:
        n = len(chars)
        return n == hopf.dim or hopf.commutator_dim() + n == hopf.dim
    residual = hopf.comult_vec(hopf.integral())
    g0 = chars.group
    for g in range(g0.order):
        q = idempotents[g0.inverse[g]]
        for i, a in idempotents[g].items():
            minus_a = -a
            for j, b in q.items():
                key = (i, j)
                new = addmul(residual.get(key), b, minus_a)
                if new is None:
                    del residual[key]
                else:
                    residual[key] = new
    return not residual or _in_square(commutator_ideal(hopf), residual)


def _in_square(space: Subspace, x: dict[tuple[int, int], Cyc]) -> bool:
    """Whether x lies in space ⊗ space.  Every column {i: x_ij} in the
    space puts x in space ⊗ H, every row {j: x_ij} puts it in H ⊗ space,
    and the two meet in space ⊗ space."""
    rows: dict[int, Vec] = {}
    cols: dict[int, Vec] = {}
    for (i, j), c in x.items():
        rows.setdefault(i, {})[j] = c
        cols.setdefault(j, {})[i] = c
    return all(space.contains(v) for v in (*rows.values(), *cols.values()))


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
    idempotents: list[Vec] | None,
    j: Elem,
    radical: list[Subspace],
    max_degree: int,
    principal: "PrincipalRadicalData | None" = None,
) -> RifeData:
    """The rife checks of j against the radical; ``idempotents`` are None
    for the verified projectors of chars or the declared ones, as in
    ``rife_hopf_check``.  When the radical's lowest generator w of
    ``principal`` is monic(j), j is a scalar multiple of w: its normality
    and its left ideal A·j = A·w are taken from there."""
    alg = action.alg
    hopf_rife = rife_hopf_check(action.hopf, chars, idempotents)
    if principal is not None and principal.normal is not None \
            and principal.generator == monic(alg, j.degree, j.vec):
        j_normal, left = principal.normal, principal.ideal
    else:
        j_normal, left = _is_normal_in_a(alg, j, max_degree), None
    # a normal j has AjA = Aj up to the bound (docs/component-grading.md)
    if left is None and (j_normal or hopf_rife):
        left = left_ideal_slices(alg, [j], max_degree)
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
    ideal: list[Subspace] | None = None  # A·w, once built


def _is_normal_in_a(alg: GradedAlgebra, x: Elem, max_degree: int) -> bool:
    """x A = A x up to the bound: is_normal reads A only in its generator
    degrees."""
    whole = {g: alg.slice_space(g) for g in set(alg.weights) if g <= max_degree}
    return is_normal(alg, x, whole, whole.keys(), max_degree)


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
    if not _is_normal_in_a(alg, w, max_degree):
        return PrincipalRadicalData(w, False, "lowest generator is not normal")
    ideal = left_ideal_slices(alg, [w], max_degree)  # AwA = Aw for a normal w
    for d in range(max_degree + 1):
        if ideal[d] != radical[d]:
            return PrincipalRadicalData(
                w, True, f"(w) differs from the radical in degree {d}", ideal
            )
    return PrincipalRadicalData(w, True, "", ideal)
