"""Finer structure attached to the component generators.

Building on the component table (f_g), this module computes

* the cocycles c_{g,h} with f_g f_h = c_{g,h} f_{gh} (left coefficients
  over the fixed ring, from ``fixed_coefficient``) and their normality,
* the Frobenius pairing the f_g induce over the top component generator,
* the trace discriminant of A over its fixed ring, evaluated in an
  abstract commutative polynomial model on the detected fixed-ring
  generators (its degree usually exceeds the truncation bound),
* verification of a supplied Nakayama automorphism candidate,
* a Steinberg-type factorisation of the Jacobian into degree-one
  component generators,
* isotypic series for the character idempotents,
* the transfer of the Jacobian to the grouplike-isotypic subalgebra
  (+)_chi A_chi, read off the certified components with no product and
  no intersection formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hopf import CharacterGroup, HopfAction, winding_left_cols, winding_right_cols
from .invariants import (
    ComponentReport,
    FixedRing,
    proportional,
    series_is_polynomial,
    series_quotient,
)
from .linalg import Matrix, Subspace, Vec, apply_cols, express, vec_addto, vec_scale, vec_to_dense
from .ncalg import Elem, GradedAlgebra, cofactor, is_normal
from .scalars import Cyc, ONE, ZERO


# ---------------------------------------------------------------------------
# coefficients over the fixed ring


def fixed_coefficient(
    alg: GradedAlgebra, fixed_slices: Sequence[Subspace], f: Elem, target: Elem, side: str
) -> Elem | None:
    """Solve target = r * f (side "left") or target = f * r (side "right")
    with r in the fixed ring; None if impossible."""
    rdeg = target.degree - f.degree
    if rdeg < 0 or rdeg >= len(fixed_slices):
        return None
    basis = fixed_slices[rdeg].basis()
    if side == "left":
        prods = [alg.mul(b, rdeg, f.vec, f.degree) for b in basis]
    else:
        prods = [alg.mul(f.vec, f.degree, b, rdeg) for b in basis]
    coeffs = express(alg.dim(target.degree), prods, target.vec)
    if coeffs is None:
        return None
    vec: Vec = {}
    for c, b in zip(coeffs, basis):
        vec_addto(vec, b, c)
    return Elem(alg, rdeg, vec)


@dataclass
class CocycleData:
    table: list[list[Elem | None]]
    complete: bool
    normal: bool
    failures: list[str]


def cocycle_table(
    alg: GradedAlgebra,
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    max_degree: int,
) -> CocycleData:
    """c[g][h] with f_g f_h = c_{g,h} f_{gh}; entries are None when a
    component generator is missing or the product overflows the bound."""
    g0 = chars.group
    n = g0.order
    table: list[list[Elem | None]] = [[None] * n for _ in range(n)]
    failures: list[str] = []
    complete = True
    normal = True
    for g in range(n):
        for h in range(n):
            fg, fh = comp.f[g], comp.f[h]
            fk = comp.f[g0.table[g][h]]
            if fg is None or fh is None or fk is None:
                complete = False
                continue
            if fg.degree + fh.degree > max_degree:
                complete = False
                failures.append(
                    f"product f_{g0.labels[g]} f_{g0.labels[h]} overflows the bound"
                )
                continue
            c = fixed_coefficient(alg, fixed.slices, fk, fg * fh, side="left")
            if c is None:
                complete = False
                failures.append(
                    f"f_{g0.labels[g]} f_{g0.labels[h]} is not a left fixed-ring "
                    f"multiple of f_{g0.labels[g0.table[g][h]]}"
                )
                continue
            table[g][h] = c
            if c.degree > 0 and not is_normal(alg, c, fixed.slices, fixed.gen_degrees,
                                               max_degree):
                normal = False
                failures.append(
                    f"cocycle at ({g0.labels[g]}, {g0.labels[h]}) is not normal "
                    f"in the fixed ring"
                )
    return CocycleData(table, complete, normal, failures)


# ---------------------------------------------------------------------------
# Frobenius pairing of the component generators


@dataclass
class FrobeniusData:
    verdict: str  # "yes" | "no" | "undetermined"
    scalars: list[Cyc | None]
    identity_holds: bool
    failures: list[str]


def frobenius_pairing(
    alg: GradedAlgebra,
    chars: CharacterGroup,
    comp: ComponentReport,
    hdet_index: int,
) -> FrobeniusData:
    """For every g check f_{m g^{-1}} f_g = lambda_g f_m with a nonzero
    scalar lambda_g, where f_m is the top component generator
    (m = inverse of the homological determinant).  Nondegeneracy of the
    pairing into the f_m line is exactly: all lambda_g nonzero."""
    g0 = chars.group
    m = g0.inverse[hdet_index]
    fm = comp.f[m]
    scalars: list[Cyc | None] = []
    failures: list[str] = []
    identity = True
    undetermined = False
    for g in range(g0.order):
        left = g0.table[m][g0.inverse[g]]
        fl, fg = comp.f[left], comp.f[g]
        if fl is None or fg is None or fm is None:
            scalars.append(None)
            undetermined = True
            continue
        if fl.degree + fg.degree != fm.degree:
            scalars.append(None)
            identity = False
            failures.append(
                f"degrees of f_{g0.labels[left]} f_{g0.labels[g]} do not reach "
                f"the top generator"
            )
            continue
        prod = fl * fg
        if prod.is_zero() or not proportional(prod, fm):
            scalars.append(ZERO)
            identity = False
            failures.append(
                f"f_{g0.labels[left]} f_{g0.labels[g]} is not a multiple of the "
                f"top generator"
            )
            continue
        lead = min(fm.vec)
        scalars.append(prod.vec[lead] / fm.vec[lead])
    if undetermined:
        return FrobeniusData("undetermined", scalars, identity, failures)
    nondeg = identity and all(s is not None and not s.is_zero() for s in scalars)
    return FrobeniusData("yes" if nondeg else "no", scalars, identity, failures)


# ---------------------------------------------------------------------------
# abstract polynomial model over the fixed-ring generators


TPoly = dict[tuple[int, ...], Cyc]


def tp_mul(p: TPoly, q: TPoly) -> TPoly:
    out: TPoly = {}
    for e1, c1 in p.items():
        vec_addto(out, {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in q.items()},
                  c1)
    return out


def tp_proportional(p: TPoly, q: TPoly) -> bool:
    if not p or not q:
        return not p and not q
    if set(p) != set(q):
        return False
    e = min(p)
    ratio = q[e] / p[e]
    return all(q[e2] == c * ratio for e2, c in p.items())


def tp_divide(q: TPoly, p: TPoly) -> TPoly | None:
    """Exact division q / p (single-divisor reduction, lex leading terms);
    None when p does not divide q."""
    if not p:
        return None
    quot: TPoly = {}
    rem = dict(q)
    lead = max(p)
    while rem:
        e = max(rem)
        diff = tuple(a - b for a, b in zip(e, lead))
        if any(x < 0 for x in diff):
            return None
        c = rem[e] / p[lead]
        quot[diff] = c
        vec_addto(rem, {tuple(a + b for a, b in zip(diff, e2)): x for e2, x in p.items()}, -c)
    return quot


def tp_det(entries: list[list[TPoly | None]], nvars: int) -> TPoly:
    """Determinant by expansion over the nonzero entries of the first row."""
    n = len(entries)
    if n == 0:
        return {(0,) * nvars: ONE}
    out: TPoly = {}
    for j, entry in enumerate(entries[0]):
        if not entry:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        sub = tp_det(minor, nvars)
        term = tp_mul(entry, sub)
        vec_addto(out, term, ONE if j % 2 == 0 else -ONE)
    return out


class FixedPolyModel:
    """Expression of fixed-ring elements as commutative polynomials in the
    detected generators.  Valid under the polynomiality certificate, which
    makes the generator monomials a basis of every slice."""

    def __init__(self, alg: GradedAlgebra, fixed: FixedRing):
        if not fixed.polynomial:
            raise ValueError("the fixed ring is not polynomial up to the bound")
        self.alg = alg
        self.fixed = fixed
        self.nvars = len(fixed.gens)
        self._monomials: dict[int, list[tuple[tuple[int, ...], Elem]]] = {}

    def monomials(self, degree: int) -> list[tuple[tuple[int, ...], Elem]]:
        got = self._monomials.get(degree)
        if got is not None:
            return got
        out: list[tuple[tuple[int, ...], Elem]] = []
        gens = self.fixed.gens

        def rec(i: int, left: int, exps: list[int], acc: Elem) -> None:
            if i == len(gens):
                if left == 0:
                    out.append((tuple(exps), acc))
                return
            step = gens[i].degree
            e = 0
            cur = acc
            while e * step <= left:
                exps.append(e)
                rec(i + 1, left - e * step, exps, cur)
                exps.pop()
                e += 1
                if e * step <= left:
                    cur = cur * gens[i]

        rec(0, degree, [], self.alg.element("1", 0))
        self._monomials[degree] = out
        return out

    def to_poly(self, elem: Elem) -> TPoly | None:
        mons = self.monomials(elem.degree)
        coeffs = express(self.alg.dim(elem.degree), [m.vec for _, m in mons], elem.vec)
        if coeffs is None:
            return None
        return {mons[i][0]: c for i, c in enumerate(coeffs) if not c.is_zero()}

    def names(self) -> list[str]:
        return [g.show() for g in self.fixed.gens]


# ---------------------------------------------------------------------------
# trace discriminant


@dataclass
class TraceDiscriminantData:
    applicable: bool
    precondition_notes: list[str]
    discriminant: TPoly | None
    generator_names: list[str]
    is_product_of_pair_products: bool | None
    delta_divides: bool | None
    divides_delta_power: bool | None
    verdict: str  # "radical-equal" | "radical-unresolved" | "not-computable"


def trace_discriminant(
    action: HopfAction,
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    cocycles: CocycleData,
    delta: Elem,
    max_degree: int,
) -> TraceDiscriminantData:
    """det of the trace pairing tr(f_g f_h) over the fixed ring, where
    tr is left-fixed-ring-linear on the free decomposition A = (+) R f_g
    (tr(r f_g) = |G| r for g trivial, 0 otherwise).

    Preconditions: dual group action, polynomial commutative fixed ring,
    generators in degree one, complete cocycle table, and slice-wise
    commutation of the span of same-degree fixed-ring generators with the
    degree-one slice (element-wise centrality can fail while every slice
    product still agrees; the span condition is what the trace needs and
    it propagates to all degrees).
    """
    alg = action.alg
    notes: list[str] = []
    if action.kind != "dual_group":
        notes.append("action is not by a dual group algebra")
    if not fixed.polynomial:
        notes.append("fixed ring is not polynomial up to the bound")
    if not fixed.commutative:
        notes.append("fixed ring is not commutative")
    if any(w != 1 for w in alg.weights):
        notes.append("algebra is not generated in degree one")
    if not cocycles.complete:
        notes.append("cocycle table is incomplete")
    if not notes and not _graded_central_spans(alg, fixed):
        notes.append(
            "fixed-ring generator spans do not commute with the degree-one slice"
        )
    if notes:
        return TraceDiscriminantData(
            False, notes, None, [], None, None, None, "not-computable"
        )

    model = FixedPolyModel(alg, fixed)
    g0 = chars.group
    n = g0.order
    order = Cyc.rational(n)
    entries: list[list[TPoly | None]] = [[None] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            if g0.table[g][h] != g0.identity:
                continue
            c = cocycles.table[g][h]
            poly = model.to_poly(c)
            if poly is None:
                notes.append("a cocycle escaped the generator model")
                return TraceDiscriminantData(
                    False, notes, None, [], None, None, None, "not-computable"
                )
            entries[g][h] = vec_scale(poly, order)
    dis = tp_det(entries, model.nvars)

    pair = {(0,) * model.nvars: ONE}
    ok = True
    for g in range(n):
        c = cocycles.table[g][g0.inverse[g]]
        poly = model.to_poly(c)
        if poly is None:
            ok = False
            break
        pair = tp_mul(pair, poly)
    is_product = tp_proportional(dis, pair) if ok else None

    delta_poly = model.to_poly(delta) if delta.degree <= max_degree else None
    if delta_poly is None:
        return TraceDiscriminantData(
            True, notes, dis, model.names(), is_product, None, None, "radical-unresolved"
        )
    delta_divides = tp_divide(dis, delta_poly) is not None
    divides_power = False
    power = {(0,) * model.nvars: ONE}
    for _ in range(n):
        power = tp_mul(power, delta_poly)
        if tp_divide(power, dis) is not None:
            divides_power = True
            break
    verdict = "radical-equal" if (delta_divides and divides_power) else "radical-unresolved"
    return TraceDiscriminantData(
        True, notes, dis, model.names(), is_product, delta_divides, divides_power, verdict
    )


def _graded_central_spans(alg: GradedAlgebra, fixed: FixedRing) -> bool:
    degrees = sorted(set(g.degree for g in fixed.gens))
    for d in degrees:
        span = Subspace.span(
            alg.dim(d), [g.vec for g in fixed.gens if g.degree == d]
        )
        left = Subspace(alg.dim(d + 1))
        right = Subspace(alg.dim(d + 1))
        for v in span.basis():
            for k in range(alg.dim(1)):
                left.add(alg.mul(v, d, {k: ONE}, 1))
                right.add(alg.mul({k: ONE}, 1, v, d))
        if left != right:
            return False
    return True


# ---------------------------------------------------------------------------
# Nakayama automorphism verification


class AlgebraEndo:
    """Multiplicative extension of degree-preserving generator images."""

    def __init__(self, alg: GradedAlgebra, images: list[Vec]):
        if len(images) != alg.ngens:
            raise ValueError("need one image per generator")
        self.alg = alg
        self.images = images
        self._cols: dict[int, list[Vec]] = {}

    def columns(self, degree: int) -> list[Vec]:
        got = self._cols.get(degree)
        if got is not None:
            return got
        alg = self.alg
        if degree == 0:
            cols = [{0: ONE}]
        else:
            cols = []
            for w in alg.basis_words(degree):
                i = w[0]
                rest_deg = degree - alg.weights[i]
                rest_idx = alg.word_index(rest_deg, w[1:])
                lower = self.columns(rest_deg)[rest_idx]
                cols.append(alg.mul(self.images[i], alg.weights[i], lower, rest_deg))
        self._cols[degree] = cols
        return cols

    def apply_vec(self, vec: Vec, degree: int) -> Vec:
        return apply_cols(self.columns(degree), vec)

    def apply(self, e: Elem) -> Elem:
        return Elem(self.alg, e.degree, self.apply_vec(e.vec, e.degree))

    def respects_relations(self) -> bool:
        alg = self.alg
        for rel, rdeg in zip(alg.relations, alg.relation_degrees):
            acc: Vec = {}
            for word, coeff in rel.items():
                cur: Vec = {0: ONE}
                deg = 0
                for i in reversed(word):
                    cur = alg.mul(self.images[i], alg.weights[i], cur, deg)
                    deg += alg.weights[i]
                vec_addto(acc, cur, coeff)
            if acc:
                return False
        return True

    def invertible_on_generators(self) -> bool:
        alg = self.alg
        for w in set(alg.weights):
            idx = [i for i in range(alg.ngens) if alg.weights[i] == w]
            cols = [vec_to_dense(self.images[i], alg.dim(w)) for i in idx]
            if Matrix.from_cols(cols).rank() != len(idx):
                return False
        return True


@dataclass
class NakayamaData:
    is_automorphism: bool
    twisted_action_identity: bool
    fixes_fixed_ring: bool
    scales_jacobian: bool
    scales_arrangement: bool
    induced: list[tuple[Elem, Elem | None]]
    induced_is_identity: bool
    index_additive: bool | None
    failures: list[str]


def nakayama_check(
    action: HopfAction,
    chars: CharacterGroup,
    fixed: FixedRing,
    hdet_index: int,
    j: Elem,
    a: Elem,
    images: list[Vec],
    max_degree: int,
    koszul_top: int | None,
) -> NakayamaData:
    alg = action.alg
    endo = AlgebraEndo(alg, images)
    failures: list[str] = []

    is_auto = endo.respects_relations() and endo.invertible_on_generators()
    if not is_auto:
        failures.append("candidate does not extend to an automorphism")

    hdet_char = chars.chars[hdet_index]
    lcols = winding_left_cols(action.hopf, hdet_char)
    rcols = winding_right_cols(action.hopf, hdet_char)
    twisted = True
    bound = min(4, max_degree)
    for h in range(action.hopf.dim):
        for d in range(bound + 1):
            for k in range(alg.dim(d)):
                lhs = action.act(lcols[h], endo.apply_vec({k: ONE}, d), d)
                rhs = endo.apply_vec(action.act(rcols[h], {k: ONE}, d), d)
                if lhs != rhs:
                    twisted = False
                    failures.append(
                        f"twisted action identity fails on {action.hopf.labels[h]} "
                        f"in degree {d}"
                    )
                    break
            if not twisted:
                break
        if not twisted:
            break

    fixes = True
    for d in range(max_degree + 1):
        image = Subspace.span(
            alg.dim(d), [endo.apply_vec(v, d) for v in fixed.slices[d].basis()]
        )
        if image != fixed.slices[d]:
            fixes = False
            failures.append(f"fixed ring not preserved in degree {d}")
            break

    scales_j = proportional(endo.apply(j), j)
    scales_a = proportional(endo.apply(a), a)
    if not scales_j:
        failures.append("jacobian line not preserved")
    if not scales_a:
        failures.append("arrangement line not preserved")

    induced: list[tuple[Elem, Elem | None]] = []
    induced_id = True
    for r in fixed.gens:
        if j.degree + r.degree > max_degree:
            induced.append((r, None))
            induced_id = False
            continue
        s = fixed_coefficient(alg, fixed.slices, j, endo.apply(r) * j, side="right")
        if s is None:
            induced.append((r, None))
            induced_id = False
            failures.append("induced map on the fixed ring is undefined")
            continue
        induced.append((r, s))
        if s != r:
            induced_id = False
    index_additive = None
    if fixed.polynomial and koszul_top is not None:
        index_additive = sum(fixed.gen_degrees) == koszul_top + j.degree
        if not index_additive:
            failures.append("generator-degree sum does not match top + jacobian degree")

    return NakayamaData(
        is_auto,
        twisted,
        fixes,
        scales_j,
        scales_a,
        induced,
        induced_id,
        index_additive,
        failures,
    )


# ---------------------------------------------------------------------------
# Steinberg-type factorisation


@dataclass
class SteinbergData:
    verdict: str  # "yes" | "no" | "undetermined"
    labels: list[str]
    scalar: Cyc | None
    reason: str


def steinberg_factorization(
    alg: GradedAlgebra,
    chars: CharacterGroup,
    comp: ComponentReport,
    j: Elem,
    hdet_index: int,
) -> SteinbergData:
    """Factor the Jacobian as scalar * f_{s_1} ... f_{s_k} with every s_i a
    degree-one component generator, peeling left factors greedily in
    catalogue order (with backtracking) along strictly decreasing word
    length in the character group."""
    g0 = chars.group
    simple = [
        g
        for g in range(g0.order)
        if g != g0.identity and comp.f[g] is not None and comp.f[g].degree == 1
    ]
    if not simple:
        return SteinbergData(
            "undetermined", [], None, "no degree-one component generators"
        )
    lengths: dict[int, int] = {g0.identity: 0}
    frontier = [g0.identity]
    while frontier:
        nxt: list[int] = []
        for g in frontier:
            for s in simple:
                t = g0.table[s][g]
                if t not in lengths:
                    lengths[t] = lengths[g] + 1
                    nxt.append(t)
        frontier = nxt
    m = g0.inverse[hdet_index]
    if lengths.get(m) != j.degree:
        return SteinbergData(
            "no",
            [],
            None,
            f"word length of the top class is {lengths.get(m)}, but the "
            f"jacobian has degree {j.degree}",
        )

    def peel(vec: Vec, degree: int, gamma: int) -> tuple[list[int], Cyc] | None:
        if degree == 0:
            return [], vec.get(0, ZERO)
        for s in simple:
            nxt_g = g0.table[g0.inverse[s]][gamma]
            if lengths.get(nxt_g) != lengths[gamma] - 1:
                continue
            q = cofactor(alg, comp.f[s], Elem(alg, degree, vec), "left")
            if q is None:
                continue
            rest = peel(q.vec, degree - 1, nxt_g)
            if rest is not None:
                return [s] + rest[0], rest[1]
        return None

    got = peel(j.vec, j.degree, m)
    if got is None:
        return SteinbergData("no", [], None, "no factorisation found")
    seq, scalar = got
    return SteinbergData("yes", [g0.labels[s] for s in seq], scalar, "")


# ---------------------------------------------------------------------------
# isotypic series and transfer


@dataclass
class IsotypicData:
    idempotent_images_match_components: bool
    grouplike_slices: list[Subspace]
    grouplike_dims: list[int]
    complement_dims: list[int]
    grouplike_rank: int | None
    complement_rank: int | None


def isotypic_series(
    action: HopfAction,
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    max_degree: int,
    idempotents: list[Vec] | None = None,
) -> IsotypicData:
    """The images of the idempotents p_i on each A_d, compared with the
    components A_{chi_i,d}, and their sum, the grouplike-isotypic slices.

    None stands for the character projectors, whose image on A_d is the
    eigenspace A_{chi_i,d} (docs/component-grading.md); the grouplike
    slice is then the span of the component slices.  Declared idempotents
    are applied to every basis word and their images spanned."""
    alg = action.alg
    matches = True
    grouplike: list[Subspace] = []
    for d in range(max_degree + 1):
        dim = alg.dim(d)
        images = [comp.slices[i][d] for i in range(len(chars))]
        if idempotents is not None:
            spans = [Subspace.span(dim, (action.act(p, {k: ONE}, d) for k in range(dim)))
                     for p in idempotents]
            matches = matches and spans == images
            images = spans
        grouplike.append(Subspace.span(dim, (v for s in images for v in s.basis())))
    gdims = [s.dim for s in grouplike]
    cdims = [alg.dim(d) - gdims[d] for d in range(max_degree + 1)]

    def rank(dims: list[int]) -> int | None:
        series = series_quotient(dims, fixed.dims, max_degree)
        ok, _ = series_is_polynomial(series)
        if not ok:
            return None
        total = sum(series)
        return int(total) if total == int(total) else None

    return IsotypicData(matches, grouplike, gdims, cdims, rank(gdims), rank(cdims))


@dataclass
class TransferData:
    xi_prime: list[Fraction]
    hdet_prime_index: int | None
    j_prime: Elem | None
    jacobians_proportional: bool | None
    reason: str


def jacobian_transfer(
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    j: Elem,
    max_degree: int,
) -> TransferData:
    """Transfer of the Jacobian to the grouplike-isotypic subalgebra
    A' = (+)_chi A_chi: dim A'_d = sum_chi dim A_chi,d and A' meets A_chi in
    A_chi, so its component generators are comp.f (docs/component-grading.md).
    Locate the top one through the Hilbert route and compare it with j."""
    gdims = [sum(s[d].dim for s in comp.slices) for d in range(max_degree + 1)]
    xi = series_quotient(gdims, fixed.dims, max_degree)
    ok, top = series_is_polynomial(xi)
    if not ok:
        return TransferData(xi, None, None, None,
                            "isotypic series is not polynomial over the fixed ring")
    hits = [i for i, f in enumerate(comp.f) if f is not None and f.degree == top]
    if len(hits) != 1:
        return TransferData(xi, None, None, None,
                            f"{len(hits)} candidate top component generators")
    j_prime = comp.f[hits[0]]
    return TransferData(xi, chars.group.inverse[hits[0]], j_prime,
                        proportional(j_prime, j), "")
