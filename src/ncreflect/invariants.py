"""Invariants of a graded algebra under a semisimple Hopf action.

Everything here is computed degree by degree, exactly:

* the character components A_g (simultaneous eigenspaces of the action,
  refined one algebra generator of H at a time),
* the fixed subring R with detected generator degrees and a polynomiality
  certificate on its Hilbert series,
* the homological determinant by two independent routes (the top of the
  Koszul-type complex on free tensor slices, and the Hilbert-series
  argument through the component generators) which must agree,
* the Jacobian, the arrangement element, and the discriminant,
* the covariant quotients A / A R_+, A / R_+ A and A / (R_+).

Components are returned as lists of subspaces indexed [character][degree].
Minimal component generators f_g are normalised so the coefficient of the
first basis word is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Sequence

from .hopf import Character, CharacterGroup, HopfAction
from .exprs import show_scalar
from .linalg import Matrix, Subspace, Vec, apply_cols, eigen_images, kernel, vec_addto, vec_scale
from .ncalg import (
    Elem,
    GradedAlgebra,
    cofactor,
    left_ideal_slices,
    monic,
    mul_elem_space,
    mul_space_elem,
    right_ideal_slices,
    two_sided_ideal_slices,
)
from .scalars import ONE, ZERO, addmul


# ---------------------------------------------------------------------------
# character components


def graded_components(
    action: HopfAction, chars: CharacterGroup, max_degree: int
) -> list[list[Subspace]]:
    """slices[i][d] = {a in A_d : h.a = chars[i](h) a for all h}.  The h
    with h.a = chars[i](h) a form a subalgebra of H, so h runs over the
    algebra generators S of H (docs/component-grading.md).

    Each degree is refined one probe s in S at a time.  A class is the
    characters that agree on the probes so far, with the joint eigenspace
    of those values.  The first probe takes one kernel of C_s − λ on A_d
    for each value λ = χ(s); a later one restricts each class to the kernel
    of C_s − μ for each value μ its characters take on s, read off the
    kernel of the images (C_s − μ)b of the basis b of the class.  Each
    basis is a reduced echelon basis (``linalg.kernel``), so each final
    one is written down as it is.  The characters differ on S, so each
    final class is one character (docs/component-grading.md, "Joint
    eigenspaces, probe by probe")."""
    alg = action.alg
    out: list[list[Subspace]] = [[] for _ in chars.chars]
    if action.kind == "dual_group":
        # character i is evaluation at group element i (asserted where the
        # action and the characters are bundled, presets.catalog.Preset),
        # so the component is the span of the basis words of that G-degree
        for i, slices in enumerate(out):
            for d in range(max_degree + 1):
                slices.append(Subspace.echelon(alg.dim(d), [
                    {k: ONE} for k, g in enumerate(action.word_gdeg(d)) if g == i]))
        return out

    probes = action.hopf.generators()
    for d in range(max_degree + 1):
        dim = alg.dim(d)
        # (characters, a basis of their joint eigenspace); None is all of A_d
        classes: list[tuple[list[int], list[Vec] | None]] = [(list(range(len(out))), None)]
        for s in probes:
            cols = action.columns(s, d)
            refined = []
            for members, basis in classes:
                for value, group in _split_by_value(chars, members, s):
                    if basis is None:
                        found = kernel(eigen_images(dim, [(cols, value)]))
                    elif basis:
                        images = []
                        for b in basis:
                            image = apply_cols(cols, b)
                            vec_addto(image, b, -value)
                            images.append(image)
                        found = [apply_cols(basis, c) for c in kernel(images)]
                    else:
                        found = []
                    refined.append((group, found))
            classes = refined
        for (i,), basis in classes:
            out[i].append(alg.slice_space(d) if basis is None
                          else Subspace.echelon(dim, basis))
    return out


def _split_by_value(chars: CharacterGroup, members: list[int], s: int) -> list[tuple]:
    """The members grouped by their value at s, in order of first
    appearance: [(value, [member, ...]), ...]."""
    groups: list[tuple] = []
    for i in members:
        value = chars.chars[i].values[s]
        for v, group in groups:
            if v == value:
                group.append(i)
                break
        else:
            groups.append((value, [i]))
    return groups


def check_component_multiplicativity(
    action: HopfAction,
    chars: CharacterGroup,
    comps: list[list[Subspace]],
    max_degree: int,
    projectors: list[Vec],
) -> list[str]:
    """A_g * A_h must land in A_{gh}: [] when it does, else [reason].

    Certified from the verified central idempotents without forming a
    product.  Each slice comps[i][d] must lie in the chars[i]-eigenspace
    of A_d (a), probed at the algebra generators of H as in
    ``graded_components``, and its dimension must be the trace on A_d of
    p_i, which is the dimension of that eigenspace (b).  Then every slice
    is its whole eigenspace, and the module-algebra law
    h.(ab) = sum (h_1.a)(h_2.b) puts A_g * A_h inside A_{g*h}
    (docs/component-grading.md).

    Once (a) holds, each slice has at most the dimension tr(p_i | A_d), so
    (b) holds for every slice of degree d exactly when the slice
    dimensions add up to the one trace of P = sum p_i on A_d, summed over
    the support of P alone.  Only in a degree where (a) or that sum fails
    are the p_i traced one by one, so the reason names the first slice
    that fails (a) or (b).

    ``analyze`` calls it on every action but a dual-group action of k^G,
    whose slices satisfy (a) and (b) by construction
    (docs/component-grading.md, "What a validated group table implies");
    the tests run it there as the oracle of that skip.
    """
    probes = action.hopf.generators()
    total: Vec = {}
    for p in projectors:
        vec_addto(total, p)
    for d in range(max_degree + 1):
        leaves = None
        for i, ch in enumerate(chars.chars):
            basis = comps[i][d].basis()
            if any(apply_cols(action.columns(h, d), v) != vec_scale(v, ch.values[h])
                   for h in probes for v in basis):
                leaves = i
                break
        if leaves is None:
            trace = None
            for h, c in total.items():
                for k, col in enumerate(action.columns(h, d)):
                    x = col.get(k)
                    if x is not None:
                        trace = addmul(trace, x, c)
            if (trace or ZERO) == sum(slices[d].dim for slices in comps):
                continue
        return [_first_failing_slice(action, chars, comps, d, projectors, leaves)]
    return []


def _first_failing_slice(action, chars, comps, d, projectors, leaves) -> str:
    """The reason for the first slice of degree d that fails (a) or (b),
    given the first one, leaves (or None), that fails (a)."""
    traces = {}
    for i, ch in enumerate(chars.chars):
        if i == leaves:
            return f"A_{ch.label} in degree {d} leaves its eigenspace"
        trace = ZERO
        for h, c in projectors[i].items():
            if h not in traces:
                cols = action.columns(h, d)
                traces[h] = sum((col[k] for k, col in enumerate(cols) if k in col), ZERO)
            trace += c * traces[h]
        dim = comps[i][d].dim
        if trace != dim:
            return (f"A_{ch.label} in degree {d} has dimension {dim}, "
                    f"its projector trace {show_scalar(trace)[0]}")
    # the traces of the p_i add up to the trace of P, which missed the sum
    raise AssertionError("no slice fails in this degree")


def minimal_component_generator(
    alg: GradedAlgebra, slices: list[Subspace], is_identity: bool
) -> tuple[Elem | None, str]:
    """The minimal-degree element of a component, normalised; or None with
    a reason ('zero' if the component vanishes, 'ambiguous' if the minimal
    slice has dimension > 1)."""
    start = 0 if is_identity else 1
    for d in range(start, len(slices)):
        dim = slices[d].dim
        if dim == 0:
            continue
        if dim > 1:
            return None, f"minimal slice (degree {d}) has dimension {dim}"
        return monic(alg, d, slices[d].basis()[0]), ""
    return None, "component is zero up to the degree bound"


@dataclass
class ComponentReport:
    chars: CharacterGroup
    slices: list[list[Subspace]]
    f: list[Elem | None]
    f_reasons: list[str]
    freeness: list[bool | None]  # None when f is undefined
    freeness_failures: list[str]


def component_report(
    action: HopfAction, chars: CharacterGroup, max_degree: int
) -> ComponentReport:
    alg = action.alg
    comps = graded_components(action, chars, max_degree)
    identity = chars.group.identity
    f: list[Elem | None] = []
    reasons: list[str] = []
    for i, slices in enumerate(comps):
        elem, reason = minimal_component_generator(alg, slices, i == identity)
        f.append(elem)
        reasons.append(reason)
    r_slices = comps[identity]
    freeness: list[bool | None] = []
    failures: list[str] = []
    for i, slices in enumerate(comps):
        fi = f[i]
        if fi is None:
            freeness.append(None)
            continue
        ok = True
        for d in range(max_degree + 1):
            lower = d - fi.degree
            if lower < 0:
                if slices[d].dim:
                    ok = False
                    failures.append(
                        f"A_{chars.group.labels[i]} is nonzero below its generator"
                    )
                    break
                continue
            left = mul_space_elem(alg, r_slices[lower], lower, fi)
            right = mul_elem_space(alg, fi, r_slices[lower], lower)
            if not (
                slices[d].dim == r_slices[lower].dim
                and left == slices[d]
                and right == slices[d]
            ):
                ok = False
                failures.append(
                    f"A_{chars.group.labels[i]} is not freely spanned by its "
                    f"generator in degree {d}"
                )
                break
        freeness.append(ok)
    return ComponentReport(chars, comps, f, reasons, freeness, failures)


# ---------------------------------------------------------------------------
# the fixed subring


@dataclass
class FixedRing:
    slices: list[Subspace]
    dims: list[int]
    gen_degrees: list[int]
    gens: list[Elem]
    polynomial: bool
    commutative: bool


def fixed_ring(
    action: HopfAction,
    chars: CharacterGroup,
    comps: list[list[Subspace]],
    max_degree: int,
) -> FixedRing:
    alg = action.alg
    identity = chars.group.identity
    slices = comps[identity]
    dims = [s.dim for s in slices]

    # (R_+)^2_d = sum_g g * R_{d - deg g} over the generators found below
    # degree d (graded Nakayama, docs/component-grading.md), so a basis
    # vector of R_d outside that span is a new generator
    gen_degrees: list[int] = []
    gens: list[Elem] = []
    for d in range(1, max_degree + 1):
        span = Subspace(alg.dim(d))
        span.extend(alg.mul(g.vec, g.degree, v, d - g.degree)
                    for g in gens for v in slices[d - g.degree].basis())
        for vec in slices[d].basis():
            # one at a time: a basis vector that raises the rank is a generator
            if span.add(vec):
                gen_degrees.append(d)
                gens.append(monic(alg, d, vec))

    polynomial = hilbert_poly_certificate(dims, gen_degrees, max_degree)

    commutative = True
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if a.degree + b.degree <= max_degree and a * b != b * a:
                commutative = False

    return FixedRing(slices, dims, gen_degrees, gens, polynomial, commutative)


def hilbert_poly_certificate(dims: Sequence[int], gen_degrees: Sequence[int], D: int) -> bool:
    """True iff hilbert(R) * prod (1 - t^d_i) = 1 up to degree D, in int."""
    series = list(dims)
    for d in gen_degrees:
        series = [series[k] - (series[k - d] if k >= d else 0) for k in range(D + 1)]
    return series[0] == 1 and all(x == 0 for x in series[1:])


def series_quotient(num: Sequence[int], den: Sequence[int], D: int) -> list[Fraction]:
    """Power-series division num/den (den[0] must be nonzero), as Fractions.
    A Hilbert series starts with 1, and dividing by a series with den[0] = 1
    stays in int; only another leading coefficient divides."""
    lead = den[0]
    out: list = []
    for d in range(D + 1):
        acc = num[d] if d < len(num) else 0
        for e in range(1, min(d, len(den) - 1) + 1):
            acc -= den[e] * out[d - e]
        out.append(acc if lead == 1 else Fraction(acc) / lead)
    return [Fraction(x) for x in out]


def series_is_polynomial(coeffs: Sequence[Fraction]) -> tuple[bool, int]:
    """(is a nonnegative-integer polynomial with a zero tail, top degree)."""
    top = -1
    for d, c in enumerate(coeffs):
        if c != 0:
            top = d
        if c != int(c) or c < 0:
            return False, -1
    if top == len(coeffs) - 1:
        return False, -1  # still nonzero at the boundary: can't tell
    return True, top


# ---------------------------------------------------------------------------
# homological determinant


@dataclass
class HDetResult:
    char_index: int
    routes: dict[str, int]
    koszul_top: int | None
    koszul_dims: list[int]
    notes: list[str]


def _free_slice_index(ngens: int, length: int):
    words = list(iproduct(range(ngens), repeat=length))
    return words, {w: i for i, w in enumerate(words)}


def koszul_route(
    action: HopfAction, chars: CharacterGroup, max_degree: int
) -> tuple[int, int, list[int]] | tuple[None, None, list[int]]:
    """Homological determinant from the top of the Koszul-type complex:
    W_s = intersection of V^i (x) Rel (x) V^(s-N-i) inside V^(x s); at the
    smallest s with dim W_s = 1 and dim W_{s+1} = 0, H acts on the line W_s
    through the homological determinant (a diagonal scaling, for instance,
    multiplies the commutation relation of a skew plane by its ordinary
    determinant).

    Returns (char index of hdet, s, dims); (None, None, dims) when the
    route does not apply.
    """
    alg = action.alg
    if any(w != 1 for w in alg.weights):
        return None, None, []
    degrees = set(alg.relation_degrees)
    if len(degrees) != 1:
        return None, None, []
    n = degrees.pop()
    ngens = alg.ngens

    rel_vecs = []
    words_n, index_n = _free_slice_index(ngens, n)
    for rel in alg.relations:
        rel_vecs.append({index_n[w]: c for w, c in rel.items()})
    rel_space = Subspace.span(len(words_n), rel_vecs)

    dims: list[int] = []
    top_s = None
    top_space: Subspace | None = None
    prev: Subspace | None = None
    rel_basis = rel_space.basis()
    for s in range(n, max_degree + 1):
        words, index = _free_slice_index(ngens, s)
        total = ngens ** s
        spaces = []
        for i in range(s - n + 1):
            # V^i (x) Rel (x) V^(s-n-i)
            left_words, _ = _free_slice_index(ngens, i)
            right_words, _ = _free_slice_index(ngens, s - n - i)
            spaces.append(Subspace.span(total, (
                {index[lw + words_n[m] + rw]: c for m, c in rv.items()}
                for lw in left_words for rv in rel_basis for rw in right_words)))
        cur = spaces[0]
        for sp in spaces[1:]:
            cur = cur.intersect(sp)
        dims.append(cur.dim)
        if prev is not None and prev.dim == 1 and cur.dim == 0:
            top_s = s - 1
            top_space = prev
            break
        if cur.dim == 0:
            break  # the chain can only shrink from here
        prev = cur
    if top_s is None or top_space is None:
        return None, None, dims

    words, index = _free_slice_index(ngens, top_s)
    w_vec = top_space.basis()[0]
    w_poly = {words[k]: c for k, c in w_vec.items()}
    values = []
    lead = min(w_vec)
    for h in range(action.hopf.dim):
        img = action.act_free(h, w_poly)
        img_vec = {index[word]: c for word, c in img.items()}
        scale = img_vec.get(lead, ZERO)
        check = {k: c * scale for k, c in w_vec.items() if not (c * scale).is_zero()}
        if img_vec != check:
            raise ValueError("H does not act by a scalar on the Koszul top")
        values.append(scale)
    return chars.index_of(Character(action.hopf, values)), top_s, dims


def hilbert_route(
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    hA: Sequence[int],
    max_degree: int,
) -> tuple[int | None, str]:
    """hdet^{-1} is the unique character whose component generator sits in
    the top degree of xi = hilbert(A)/hilbert(R)."""
    if not fixed.polynomial:
        return None, "fixed ring is not polynomial up to the degree bound"
    xi = series_quotient(hA, fixed.dims, max_degree)
    ok, top = series_is_polynomial(xi)
    if not ok:
        return None, "xi is not a polynomial up to the degree bound"
    if any(f is None for f in comp.f):
        return None, "some component generators are undefined"
    hits = [i for i, f in enumerate(comp.f) if f.degree == top]
    if len(hits) != 1:
        return None, f"{len(hits)} component generators have degree {top}"
    inv = chars.group.inverse[hits[0]]
    return inv, ""


def homological_determinant(
    action: HopfAction,
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    max_degree: int,
    supplied: int | None = None,
) -> HDetResult:
    alg = action.alg
    hA = alg.hilbert(max_degree)
    routes: dict[str, int] = {}
    notes: list[str] = []

    k_idx, k_top, k_dims = koszul_route(action, chars, max_degree)
    if k_idx is not None:
        routes["koszul"] = k_idx
    else:
        notes.append("koszul route unavailable")

    h_idx, h_reason = hilbert_route(chars, comp, fixed, hA, max_degree)
    if h_idx is not None:
        routes["hilbert"] = h_idx
    else:
        notes.append(f"hilbert route unavailable: {h_reason}")

    if not routes:
        raise ValueError("no route to the homological determinant applies")
    values = set(routes.values())
    if len(values) != 1:
        labels = {name: chars.group.labels[i] for name, i in routes.items()}
        raise ValueError(f"homological determinant routes disagree: {labels}")
    got = values.pop()
    if supplied is not None and supplied != got:
        raise ValueError(
            f"supplied homological determinant {chars.group.labels[supplied]} "
            f"!= computed {chars.group.labels[got]}"
        )
    return HDetResult(got, routes, k_top, k_dims, notes)


# ---------------------------------------------------------------------------
# jacobian, arrangement element, discriminant


@dataclass
class JacobianData:
    j: Elem
    a: Elem
    delta_left: Elem
    delta_right: Elem
    deltas_proportional: bool
    delta_in_fixed_ring: bool
    a_divides_j_left: bool
    a_divides_j_right: bool


def jacobian_data(
    alg: GradedAlgebra,
    chars: CharacterGroup,
    comp: ComponentReport,
    fixed: FixedRing,
    hdet_index: int,
) -> JacobianData:
    inv = chars.group.inverse[hdet_index]
    j = comp.f[inv]
    a = comp.f[hdet_index]
    if j is None or a is None:
        raise ValueError("component generators at the homological determinant are undefined")
    dl = a * j
    dr = j * a
    prop = proportional(dl, dr)
    d = dl.degree
    in_r = d <= len(fixed.slices) - 1 and fixed.slices[d].contains(dl.vec) and fixed.slices[
        d
    ].contains(dr.vec)
    left = cofactor(alg, a, j, "left") is not None
    right = cofactor(alg, a, j, "right") is not None
    return JacobianData(j, a, dl, dr, prop, in_r, left, right)


def proportional(x: Elem, y: Elem) -> bool:
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    if x.degree != y.degree or set(x.vec) != set(y.vec):
        return False
    k = min(x.vec)
    ratio = y.vec[k] / x.vec[k]
    return all(y.vec[k2] == c * ratio for k2, c in x.vec.items())


# ---------------------------------------------------------------------------
# covariant quotients


@dataclass
class CovariantData:
    left_dims: list[int]
    right_dims: list[int]
    algebra_dims: list[int]
    tepid: bool
    frobenius: str  # "yes" | "no" | "undetermined"
    frobenius_reason: str


def covariant_data(
    alg: GradedAlgebra, fixed: FixedRing, max_degree: int
) -> CovariantData:
    # R_+ is spanned by products of the detected generators, so A * R_+,
    # R_+ * A and (R_+) are the ideals those generators generate; when
    # A R_+ = R_+ A, (R_+) = A R_+ A = A R_+ (docs/component-grading.md)
    left = left_ideal_slices(alg, fixed.gens, max_degree)
    right = right_ideal_slices(alg, fixed.gens, max_degree)
    tepid = all(left[d] == right[d] for d in range(max_degree + 1))
    two = left if tepid else two_sided_ideal_slices(alg, fixed.gens, max_degree)
    dims = [alg.dim(d) for d in range(max_degree + 1)]
    left_dims = [dims[d] - left[d].dim for d in range(max_degree + 1)]
    right_dims = [dims[d] - right[d].dim for d in range(max_degree + 1)]
    alg_dims = [dims[d] - two[d].dim for d in range(max_degree + 1)]
    frob, reason = _graded_frobenius(alg, two, alg_dims, max_degree)
    return CovariantData(left_dims, right_dims, alg_dims, tepid, frob, reason)


def _graded_frobenius(
    alg: GradedAlgebra,
    ideal: Sequence[Subspace],
    qdims: Sequence[int],
    max_degree: int,
) -> tuple[str, str]:
    """Is the covariant algebra graded Frobenius (perfect pairing into its
    one-dimensional top degree)?"""
    if qdims[max_degree] != 0:
        return "undetermined", "covariant algebra still nonzero at the degree bound"
    top = max((d for d in range(max_degree + 1) if qdims[d]), default=0)
    if qdims[top] != 1:
        return "no", f"top degree {top} has dimension {qdims[top]}"
    reps = [_quotient_lifts(alg, ideal[d], d) for d in range(top + 1)]
    # every reduced vector in the 1-dimensional top quotient is a multiple
    # of the reduced image of the chosen top representative
    tv = ideal[top].reduce(reps[top][0])
    lead = min(tv)
    for d in range(top + 1):
        e = top - d
        if qdims[d] != qdims[e]:
            return "no", f"dimensions in degrees {d} and {e} differ"
        rows = []
        for u in reps[d]:
            row = []
            for v in reps[e]:
                red = ideal[top].reduce(alg.mul(u, d, v, e))
                row.append(red.get(lead, ZERO) / tv[lead])
            rows.append(row)
        if rows and Matrix(rows).rank() != qdims[d]:
            return "no", f"pairing degenerates in degree {d}"
    return "yes", ""


def _quotient_lifts(alg: GradedAlgebra, ideal_slice: Subspace, d: int) -> list[Vec]:
    """Standard-basis lifts of a basis of A_d / ideal_slice."""
    span = Subspace.echelon(alg.dim(d), ideal_slice.basis())
    out = []
    for k in range(alg.dim(d)):
        # one at a time: a unit vector that raises the rank is a lift
        if span.add({k: ONE}):
            out.append({k: ONE})
    return out
