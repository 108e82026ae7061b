"""Independent brute-force oracles used to pin down engine expectations.

``dense_rref`` is the textbook dense Gauss-Jordan elimination that
``Matrix.rref`` is checked against; ``dense_eigenvectors`` reads the
kernel of stacked C - lam rows off it, the reference for ``linalg.kernel``
of ``linalg.eigen_images``.

``zassenhaus_intersect`` is the doubled-coordinate intersection: it
eliminates both operands anew, the reference for
``Subspace.intersect``, which reuses the larger operand's echelon.
``fraction_series_quotient`` divides power series with every
coefficient a ``Fraction``, the reference for
``invariants.series_quotient``, which stays in int when the leading
coefficient of the divisor is 1.
``tracked_kernel`` appends tracking coordinates to the images, reads
the relations among them off the echelon rows that pivot in the
tracking block and spans them anew, the reference for
``linalg.kernel``, which reads the reduced echelon basis of the kernel
off one echelon of the transposed images.

``augmentation_module`` builds A * S_+ or S_+ * A from every slice of a
subalgebra S (``subalgebra_slices``), the reference for the covariant
ideals, which the engine builds from the generators of S alone.

``pairwise_integral_span`` spans (1#Λ)(b#k) over every basis pair of
A_d x H, the reference for ``smash.integral_span_slices``, which uses
the (1#Λ)(a#1) alone.  ``integral_span_full_products`` spans S_d
through the components and multiplies each complement vector out by
the whole unit of H, the reference for ``smash.integral_span_slices``,
which keeps only the coordinates of the unit in the complement block
1 − Σ p_χ.  ``smash_mul_per_leg`` multiplies in A # H by ``alg.mul`` for
every left factor and adds one re-keyed dict per leg, the reference for
``smash.SmashProduct.mul``, which takes a left factor of degree 0 as
the unit of A and adds each term into the product.
``pertinency_by_pushes`` grows the pertinency slices P_d inside A_d # H
by the push recursion P_d = S_d + Σ_i (x_i # 1) P_{d − w_i}, each degree
one batch (``submodule_by_pushes`` on the letters ``lifted_letter`` to
A ⊗ k^n), the reference for ``smash.pertinency_slices``, which keeps the
quotient module ``ncalg.QuotientModule``; ``module_kernel`` recovers
P_d from the module as the kernel of π over every basis element, and
``residue_trace`` reads the trace off the residues of the a # 1 modulo
P_d, the reference for ``smash._trace_on_a``.
``pertinency_one_at_a_time`` adds one image at a time in generator
order, the reference for the batches.  ``smash_dim`` is dim A_d # H, and
``spans`` spans the vectors ``smash.integral_span_slices`` hands over.

``fixed_ring_all_pairs`` spans (R_+)^2_d from every product R_e R_{d-e},
the reference for ``invariants.fixed_ring``, which spans it from the
generators found below d.  ``pairwise_intersection`` builds A·A_g for
every component, the one holding 1 included, and intersects them one
pair at a time, the reference for ``smash.dual_group_shortcut``, which
reads the intersection off one kernel of a quotient module.
``stacked_module`` builds that module as ``QuotientModule`` with the
components as generator rows, one copy per component without 1, and
``dual_group_by_generators`` reads the kernel off it: the reference for
``smash.dual_group_shortcut``, which drops copy g's G-degree-g block
instead of eliminating generator rows.  ``downup_s3_spec`` is the downup
algebra graded by S3, a dual-group action no preset ships.

``normal_in_every_degree`` compares x * S_d with S_d * x in every
degree, the reference for ``ncalg.is_normal``, which compares them only
in the generator degrees of S.  ``isotypic_images`` spans the image of
every idempotent on every basis word, the reference for
``structure.isotypic_series``, which reads the images of the character
projectors off the components.

``transfer_by_products`` forms every product of two grouplike slices,
intersects each component with the grouplike slices and takes the
minimal generators of the intersections anew, the reference for
``structure.jacobian_transfer``, which reads all three off the certified
components.

``verify_all_triples`` checks associativity on every basis triple and
the multiplicativity of Δ and ε on every basis pair, the reference for
``HopfAlgebra.verify``, which runs the middle or right factor over
``HopfAlgebra.generators``.  ``integral_all_basis`` and
``central_idempotents_all_basis`` read off and check Λ and the p_χ
against every basis element, the references for ``HopfAlgebra.integral``
and ``hopf.central_idempotents``; ``components_all_probes`` takes the
common eigenspaces of every basis element, and ``components_per_character``
eliminates the rows of every probe once per character, the references for
``invariants.graded_components``, which refines the joint eigenspaces one
probe at a time.  ``commutator_ideal_all_pairs``
closes the span of every basis commutator under products by every basis
element, the reference for ``hopf.commutator_ideal``.
``smash_blocks_by_products`` builds the adapted basis of H from every
product hE, the reference for ``smash.SmashProduct``, which reads the
line of a character projector off its character.

``multiplicativity_by_products`` forms every product A_g,e * A_h,f
and names each one that leaves A_{gh} (``products_inside`` tests one
pair of slices), the reference for
``invariants.check_component_multiplicativity``, which certifies the
grading from the character projectors without forming a product.
``certificate_per_character`` is that certificate with one trace of p_i
per character and degree, the reference for the check's one trace of
Σ p_i per degree.
``greedy_generating_set`` takes each group element outside the subgroup
of the ones before it, the reference for ``HopfAlgebra.generators`` on
a group algebra.

``linear_characters_by_enumeration`` tries every assignment of roots
of unity to the generators of a group at once, the product of their
orders, and sorts the homomorphisms by their values on the whole basis,
the reference for ``hopf.group_linear_characters``, which extends them
one generator at a time and sorts them by their values on the
generators.  ``keyed_character_table`` checks every character on every
pair of basis elements and looks each convolution product up by its
``Cyc.key`` values on the whole basis, and ``index_by_key`` scans for a
character by those keys, the references for ``hopf.CharacterGroup``,
which looks a character up by its values on the generators of H.
``action_verify_all_pairs`` checks the module law (ab)·x_j = a·(b·x_j)
on every pair of basis elements, the reference for
``HopfAction.verify``, which runs b over the generators of H.
``central_idempotents_all_basis`` also checks χ'(p_χ) = δ, which
``hopf.central_idempotents`` derives.

``constrained_left_ideal``, ``matrix_block_units`` and
``kac_palyutkin_idempotents`` are the closed-form pieces of the
Kac-Paljutkin radical the tests check the engine against; ``is_abelian``,
``commutator_subgroup``, ``symmetric3`` and ``direct_product`` build and
test small groups.

``permutation_group`` closes a list of permutations under composition
and ``small_permutation_groups`` builds S3, D8, Q8, A4 and S4 with it;
``group_tables`` adds them to the shipped groups and the cyclic groups
of order up to 12, the groups the skips on kG and k^G are tested on.
``unmarked`` rebuilds kG or k^G, its action and its characters as a
plain ``HopfAlgebra``, a ``from_matrices`` action and convolved
characters, the reference for everything ``GroupAlgebra`` and
``DualGroupAlgebra`` read off their table.
``rife_by_tensor_span`` is the residual test of Hopf-rife with the
residual formed as one dense tensor per term and I_com ⊗ I_com spanned
from every pair of basis vectors in dimension dim H², the reference for
``smash.rife_hopf_check``, which counts blocks or reads the residual row
by row and column by column (``in_square_by_span`` is its membership
test alone).  ``block_count_by_ideal`` is the block count with I_com
built by products, the reference for ``rife_hopf_check`` on a marked kG,
which reads dim I_com = |G| − |G/[G, G]| off the table.

``vec_addto_unfused`` and ``UnfusedEch`` form each entry of a sparse
accumulation or elimination as a product and then a sum, and always
normalise a new row by the inverse of its pivot, the references for
``linalg.vec_addto`` and ``SparseEch.reduce`` / ``insert``, which fuse
a + x·c in ``scalars.addmul`` and store a row with pivot coefficient 1
as it is.  ``smash_mul_per_entry`` and ``tensor_mul_per_pair`` are the
unfused ``SmashProduct.mul`` and ``HopfAlgebra.tensor_mul``, the latter
with one dict of products per pair of terms.

``ScanningEch`` inserts by scanning every stored row for the new pivot,
the reference for ``SparseEch.insert``, which skips the scan for a pivot
below every stored one.  ``LoopingEch`` reduces by re-scanning the
vector for pivot columns until none is left, the reference for
``SparseEch.reduce``, which clears them in one pass.  ``mul_left_words`` always lets the words of the
left factor act on the right one, the reference for
``GradedAlgebra.mul``, which lets the shorter side act.
``ideal_slices_eliminating`` eliminates every degree of a left, right or
two-sided ideal, the reference for the three ``ncalg`` ideal functions,
which write a slice down as whole once the slices below it are.

``trace_matrix_determinant`` writes the trace pairing tr(f_g f_h) out as
its n×n entry table and expands the determinant by ``structure.tp_det``,
the reference for ``structure.trace_discriminant``, which reads it off as
a signed product of the cocycles c_{g,g⁻¹}; ``tp_proportional`` compares
two polynomials in the fixed-ring generators up to a scalar.

``FractionCyc`` is the textbook cyclotomic scalar: ``Fraction``
coefficients modulo Phi_n, products by convolution and power-table
reduction, inverses by the extended Euclidean algorithm over Q[z], and
``key()`` by a dense solve against the embedded subfield bases.  It is
the reference for the integer representation of ``scalars.Cyc``.

``project_by_reduce`` maps a carrier column of a quotient module to M_d
by reducing its unit vector modulo the relation rows, the reference for
``ncalg._project``, which reads the column off the echelon: a column off
the pivots as its basis element, a pivot column as minus its row.

``QuotientOracle`` builds each graded slice the slow, obviously-correct
way: enumerate every free word of the degree, span the full two-sided
relation-ideal slice u * rho * v inside the free slice, and eliminate.
It is the reference for ``ncalg.QuotientModule`` in the case n = 1,
G = 0, which is how ``GradedAlgebra`` builds A: the basis words, the
normal form of every free word (``nf_word``) and the left letter maps
(``left_letter``) must agree with it exactly, on the shipped relations
and on random presentations.  The module tests for n > 1 or G ≠ 0
(``module_kernel``, ``submodule_by_pushes``) use A's letters, so they
rest on it too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd

from ncreflect.exprs import FreePoly, Word, p_degree
from ncreflect.hopf import (
    Character,
    CharacterGroup,
    Group,
    HopfAction,
    HopfAlgebra,
    commutator_ideal,
)
from ncreflect.invariants import series_is_polynomial, series_quotient
from ncreflect.exprs import show_scalar
from ncreflect.linalg import (
    SparseEch,
    Subspace,
    Vec,
    apply_cols,
    vec_addto,
    vec_scale,
)
from ncreflect.presets import catalog
from ncreflect import smash
from ncreflect.ncalg import (
    Elem,
    QuotientModule,
    left_ideal_slices,
    monic,
    mul_elem_space,
    mul_space_elem,
)
from ncreflect.scalars import (
    I,
    MINUS_ONE,
    ZERO,
    Cyc,
    ONE,
    addmul,
    coerce,
    cyclotomic,
    divisors,
    euler_phi,
)
from ncreflect.smash import RadicalData, integral_span_slices
from ncreflect.structure import TPoly, tp_det


def dense_rref(rows: list[list]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row-echelon form (zero rows last) and the pivot columns."""
    m = [[coerce(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def dense_eigenvectors(dim: int, maps) -> list[dict]:
    """Common eigenvectors of maps given as (columns, lam): the right
    kernel of the stacked dense rows of every C - lam, one sparse vector
    per free column of its RREF, in ascending order."""
    rows = [
        [cols[c].get(r, ZERO) - (lam if c == r else ZERO) for c in range(dim)]
        for cols, lam in maps
        for r in range(dim)
    ]
    red, pivots = dense_rref(rows) if rows else ([], [])
    out = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [ZERO] * dim
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append({k: x for k, x in enumerate(v) if not x.is_zero()})
    return out


def fraction_series_quotient(num, den, D: int) -> list[Fraction]:
    """Power-series division num/den with every coefficient a Fraction."""
    out: list[Fraction] = []
    for d in range(D + 1):
        acc = Fraction(num[d]) if d < len(num) else Fraction(0)
        for e in range(1, d + 1):
            if e < len(den):
                acc -= den[e] * out[d - e]
        out.append(acc / den[0])
    return out


def tracked_kernel(dim: int, gens: list[Vec]) -> Subspace:
    """{c : Σ c_i gens[i] = 0} for gens in k^dim: each generator with 1 at
    its own tracking coordinate dim + i appended goes into one echelon,
    and the rows that pivot in the tracking block, shifted down by dim,
    are spanned anew."""
    ech = SparseEch(dim + len(gens))
    for i, g in enumerate(gens):
        row = dict(g)
        row[dim + i] = ONE
        ech.insert(row)
    relations = [{k - dim: x for k, x in row.items()}
                 for p, row in sorted(ech.rows.items()) if p >= dim]
    return Subspace.span(len(gens), relations)


def zassenhaus_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V by Zassenhaus: reduce rows (u|u) and (v|0) in dimension 2n;
    the rows pivoting in the right block have a zero left block, and
    their right parts span U ∩ V."""
    n = u.ambient
    work = SparseEch(2 * n)
    for row in u.basis():
        doubled = dict(row)
        for k, x in row.items():
            doubled[k + n] = x
        work.insert(doubled)
    for row in v.basis():
        work.insert(row)
    return Subspace.span(n, [{k - n: x for k, x in row.items()}
                             for p, row in work.rows.items() if p >= n])


class ScanningEch(SparseEch):
    """``SparseEch`` whose insert scans every stored row for the new pivot."""

    __slots__ = ()

    def insert(self, vec: Vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p].inverse()
        row = {k: x * inv for k, x in v.items()}
        row[p] = ONE
        for r in self.rows.values():
            c = r.get(p)
            if c is not None:
                vec_addto(r, row, -c)
        self.rows[p] = row
        return True


class LoopingEch(SparseEch):
    """``SparseEch`` whose reduce subtracts the row of every pivot column it
    finds and scans the vector again, until no pivot column is left."""

    __slots__ = ()

    def reduce(self, vec: Vec) -> Vec:
        v = dict(vec)
        rows = self.rows
        hits = [k for k in v if k in rows]
        while hits:
            for p in hits:
                c = v.get(p)
                if c is None:
                    continue
                del v[p]
                c = -c
                for k, x in rows[p].items():
                    if k == p:
                        continue
                    new = addmul(v.get(k), x, c)
                    if new is None:
                        del v[k]
                    else:
                        v[k] = new
            hits = [k for k in v if k in rows]
        return v


def normal_forms(vec: dict) -> dict:
    """A vector by the ``(n, nums, den)`` of its entries: equal only when
    the entries are written alike, not just equal in value."""
    return {k: (x.n, x.nums, x.den) for k, x in vec.items()}


def vec_addto_unfused(acc: Vec, v: Vec, c: Cyc = ONE) -> None:
    """In-place acc += c * v, each entry as a product and then a sum."""
    if c.is_zero():
        return
    for k, x in v.items():
        cur = acc.get(k)
        new = x * c if cur is None else cur + x * c
        if new.is_zero():
            if cur is not None:
                del acc[k]
        else:
            acc[k] = new


def _subtract_row(v: Vec, row: Vec, p: int, c: Cyc) -> None:
    """v -= c * row off the pivot p, entry by entry as a product and then
    a difference."""
    for k, x in row.items():
        if k == p:
            continue
        cur = v.get(k)
        new = -x * c if cur is None else cur - x * c
        if new.is_zero():
            if cur is not None:
                del v[k]
        else:
            v[k] = new


class UnfusedEch(SparseEch):
    """``SparseEch`` whose reduce and back-substitution form each entry as a
    product and then a difference, and whose insert always normalises the
    row by the inverse of its pivot coefficient."""

    __slots__ = ()

    def reduce(self, vec: Vec) -> Vec:
        v = dict(vec)
        rows = self.rows
        hits = [k for k in v if k in rows]
        while hits:
            for p in hits:
                c = v.get(p)
                if c is None:
                    continue
                del v[p]
                _subtract_row(v, rows[p], p, c)
            hits = [k for k in v if k in rows]
        return v

    def insert(self, vec: Vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p].inverse()
        row = {k: x * inv for k, x in v.items()}
        row[p] = ONE
        if p < self.low:
            self.low = p
            self.rows[p] = row
            return True
        for r in self.rows.values():
            c = r.get(p)
            if c is not None:
                del r[p]
                _subtract_row(r, row, p, c)
        self.rows[p] = row
        return True


def smash_mul_per_entry(sm, v: Vec, dv: int, w: Vec, dw: int) -> Vec:
    """``SmashProduct.mul`` with each entry formed as a product and then a
    sum, and the entries that cancel filtered out at the end."""
    alg, nH = sm.alg, sm.nH

    def h_parts(vec: Vec) -> dict[int, Vec]:
        parts: dict[int, Vec] = {}
        for key, c in vec.items():
            i, h = divmod(key, nH)
            parts.setdefault(i, {})[h] = c
        return parts

    right = h_parts(w)
    out: Vec = {}
    for i, h in h_parts(v).items():
        for j, k in right.items():
            for h1, leg in sm._legs(h, k).items():
                amul = sm.action.columns(h1, dw)[j]
                if dv:
                    amul = alg.mul({i: ONE}, dv, amul, dw)
                for ai, ac in amul.items():
                    base = ai * nH
                    for hi, hc in leg.items():
                        cur = out.get(base + hi)
                        out[base + hi] = ac * hc if cur is None else cur + ac * hc
    return {key: x for key, x in out.items() if not x.is_zero()}


def tensor_mul_per_pair(hopf, s: dict, t: dict) -> dict:
    """(a ⊗ b)(c ⊗ d) = ac ⊗ bd summed over the terms of s and t, one dict
    of products per pair of terms, added in unfused."""
    out: dict = {}
    for (a, b), x in s.items():
        for (c, d), y in t.items():
            left, right = hopf.mult[a][c], hopf.mult[b][d]
            vec_addto_unfused(out, {(p, q): xp * xq for p, xp in left.items()
                                    for q, xq in right.items()}, x * y)
    return out


def mul_left_words(alg, v: Vec, dv: int, w: Vec, dw: int) -> Vec:
    """v * w: each basis word of v acts on w letter by letter, right to left."""
    out: Vec = {}
    words = alg.basis_words(dv)
    for k, c in v.items():
        vec, deg = w, dw
        for letter in reversed(words[k]):
            vec = apply_cols(alg.left_letter(letter, deg), vec)
            deg += alg.weights[letter]
        vec_addto(out, vec, c)
    return out


def ideal_slices_eliminating(alg, gens, max_degree: int, side: str) -> list[Subspace]:
    """Slices of the ideal gens generate on side "left", "right" or
    "two-sided", by the recursion I_d = <gens>_d + sum_i x_i I_{d - w_i}
    (and/or I_{d - w_i} x_i), eliminated in every degree."""
    letters = {"left": [alg.left_letter], "right": [alg.right_letter],
               "two-sided": [alg.left_letter, alg.right_letter]}[side]
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace.span(alg.dim(d), [g.vec for g in gens if g.degree == d])
        for letter in letters:
            for i, w in enumerate(alg.weights):
                if w <= d:
                    cols = letter(i, d - w)
                    acc.extend(apply_cols(cols, v) for v in out[d - w].basis())
        out.append(acc)
    return out


def augmentation_module(alg, sub_slices, max_degree: int, side: str) -> list[Subspace]:
    """Slices of A * S_+ (side "left") or S_+ * A (side "right"), by the
    recursion M_d = S_d + sum_i x_i M_{d - w_i} (or M_{d - w_i} x_i)."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace(alg.dim(d))
        if 1 <= d < len(sub_slices):
            for v in sub_slices[d].basis():
                acc.add(v)
        for i, w in enumerate(alg.weights):
            if w <= d:
                letter = alg.left_letter if side == "left" else alg.right_letter
                cols = letter(i, d - w)
                for v in out[d - w].basis():
                    acc.add(apply_cols(cols, v))
        out.append(acc)
    return out


def subalgebra_slices(alg, gens, max_degree: int) -> list[Subspace]:
    """Slices of the unital subalgebra generated by gens (degree 0 is k)."""
    out = [alg.slice_space(0)]
    for d in range(1, max_degree + 1):
        acc = Subspace(alg.dim(d))
        for g in gens:
            if g.degree == d and not g.is_zero():
                acc.add(g.vec)
        for g in gens:
            if 0 < g.degree <= d and not g.is_zero():
                for v in out[d - g.degree].basis():
                    acc.add(alg.mul(v, d - g.degree, g.vec, g.degree))
        out.append(acc)
    return out


def smash_dim(sm, degree: int) -> int:
    """dim A_degree # H."""
    return sm.alg.dim(degree) * sm.nH


def spans(sm, vecs_by_degree) -> list[Subspace]:
    """The span in A_d # H of each degree's vectors."""
    return [Subspace.span(smash_dim(sm, d), vecs) for d, vecs in enumerate(vecs_by_degree)]


def pairwise_integral_span(sm, max_degree: int) -> list[Subspace]:
    """S_d = span{(1#Λ)(b#k)} over basis pairs of A_d x H."""
    lam = sm.unit_integral()
    out = []
    for d in range(max_degree + 1):
        space = Subspace(smash_dim(sm, d))
        for key in range(smash_dim(sm, d)):
            space.add(sm.mul(lam, 0, {key: ONE}, d))
        out.append(space)
    return out


def integral_span_full_products(sm, max_degree: int, components=()) -> list[Subspace]:
    """S_d spanned by one product per component, re-keyed, and by the
    (1#Λ)(e_i#1) over the unit vectors e_i off the pivots of their sum,
    every coordinate of the unit of H multiplied out."""
    lam, nH = sm.unit_integral(), sm.nH

    def times_integral(a: Vec, d: int) -> Vec:
        return sm.mul(lam, 0, sm.include_a(a, d), d)

    parts: dict[int, Vec] = {}
    out = []
    for d in range(max_degree + 1):
        vecs, eigen = [], Subspace(sm.alg.dim(d))
        for c, slices in enumerate(components):
            for a in slices[d].basis():
                if c not in parts:
                    k = min(a)
                    parts[c] = {key - k * nH: x for key, x in times_integral(a, d).items()
                                if key // nH == k}
                vecs.append({i * nH + h: x * y for i, x in a.items()
                             for h, y in parts[c].items()})
                eigen.add(a)
        pivots = {min(a) for a in eigen.basis()}
        vecs.extend(times_integral({i: ONE}, d)
                    for i in range(sm.alg.dim(d)) if i not in pivots)
        out.append(Subspace.span(smash_dim(sm, d), vecs))
    return out


def smash_mul_per_leg(sm, v: Vec, dv: int, w: Vec, dw: int) -> Vec:
    """(a#h)(b#k) = Σ a (h_(1)·b) # h_(2) k: one ``alg.mul`` per first leg
    h_(1), whatever the degree of a, and one re-keyed dict per leg."""
    alg, nH = sm.alg, sm.nH

    def h_parts(vec: Vec) -> dict[int, Vec]:
        parts: dict[int, Vec] = {}
        for key, c in vec.items():
            i, h = divmod(key, nH)
            parts.setdefault(i, {})[h] = c
        return parts

    right = h_parts(w)
    out: Vec = {}
    for i, h in h_parts(v).items():
        for j, k in right.items():
            for h1, leg in sm._legs(h, k).items():
                amul = alg.mul({i: ONE}, dv, sm.action.columns(h1, dw)[j], dw)
                for hi, hc in leg.items():
                    vec_addto(out, {ai * nH + hi: ac for ai, ac in amul.items()}, hc)
    return out


def lifted_letter(alg, n: int, i: int, degree: int) -> list[Vec]:
    """Columns of x_i acting on A_degree ⊗ k^n, coordinates k * n + h."""
    return [{ai * n + h: ac for ai, ac in col.items()}
            for col in alg.left_letter(i, degree) for h in range(n)]


def submodule_by_pushes(alg, n: int, gens, max_degree: int) -> list[Subspace]:
    """Slices of the left submodule A·G of A^n that gens[d] (vectors over
    the coordinates k * n + h) generate, by the recursion
    N_d = G_d + Σ_i x_i N_{d - w_i}, each degree inserted as one batch."""
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        acc = Subspace.span(alg.dim(d) * n, gens[d])
        images = []
        for i, w in enumerate(alg.weights):
            if w <= d:
                cols = lifted_letter(alg, n, i, d - w)
                images.extend(apply_cols(cols, v) for v in out[d - w].basis())
        acc.extend(images)
        out.append(acc)
    return out


def pertinency_by_pushes(sm, max_degree: int, components=()) -> list[Subspace]:
    """Slices of the pertinency ideal by the push recursion
    P_d = S_d + Σ_i (x_i # 1) P_{d - w_i} inside A_d # H, the reference for
    ``smash.pertinency_slices``, which keeps the quotient module."""
    return submodule_by_pushes(sm.alg, sm.nH, integral_span_slices(sm, max_degree, components),
                               max_degree)


def module_kernel(module, max_degree: int) -> list[Subspace]:
    """The slices of A·G recovered from a ``QuotientModule``: the kernel of
    π over every basis element u ⊗ e_h of A^n_d."""
    alg, n = module.alg, module.n
    out = []
    for d in range(max_degree + 1):
        images = [module.image(d, k, h) for k in range(alg.dim(d)) for h in range(n)]
        out.append(tracked_kernel(module.dims[d], images))
    return out


def residue_trace(sm, space: Subspace, degree: int) -> Subspace:
    """{a in A_d : a # 1 in space}: the relations among the residues of the
    a # 1 modulo the slice, the reference for ``smash._trace_on_a``, which
    reads the kernel of a ↦ π(a # 1) off the quotient module."""
    dim = sm.alg.dim(degree)
    residues = [space.reduce(sm.include_a({i: ONE}, degree)) for i in range(dim)]
    return tracked_kernel(smash_dim(sm, degree), residues)


def pertinency_one_at_a_time(sm, max_degree: int) -> list[Subspace]:
    """Slices of the pertinency ideal by the recursion P_d = S_d + sum_i
    (x_i # 1) P_{d - w_i}, each image added on its own."""
    out = pairwise_integral_span(sm, max_degree)
    for d in range(max_degree + 1):
        for i, w in enumerate(sm.weights):
            if w <= d:
                cols = lifted_letter(sm.alg, sm.nH, i, d - w)
                for v in out[d - w].basis():
                    out[d].add(apply_cols(cols, v))
    return out


def fixed_ring_all_pairs(alg, slices, max_degree: int):
    """(generator degrees, monic generators) of the subalgebra with the
    given slices: in each degree, the basis vectors outside the span of
    every product of two slices of positive degree."""
    gen_degrees, gens = [], []
    for d in range(1, max_degree + 1):
        span = Subspace(alg.dim(d))
        for e in range(1, d):
            for u in slices[e].basis():
                for v in slices[d - e].basis():
                    span.add(alg.mul(u, e, v, d - e))
        for vec in slices[d].basis():
            if span.add(vec):
                gen_degrees.append(d)
                gens.append(monic(alg, d, vec))
    return gen_degrees, gens


def pairwise_intersection(alg, comp_slices, max_degree: int) -> RadicalData:
    """Slices and codimensions of the intersection of the left ideals A·A_g
    over every component, each degree folded one pair at a time."""
    ideals = [left_ideal_slices(alg, [Elem(alg, d, v) for d in range(max_degree + 1)
                                      for v in slices[d].basis()], max_degree)
              for slices in comp_slices]
    out = []
    for d in range(max_degree + 1):
        acc = ideals[0][d]
        for ideal in ideals[1:]:
            acc = acc.intersect(ideal[d])
        out.append(acc)
    return RadicalData(out, [alg.dim(d) - s.dim for d, s in enumerate(out)])


def stacked_module(alg, comp_slices, max_degree: int) -> QuotientModule:
    """⊕_j A/A·A_{g_j} over the components with A_{g_j,0} = 0, as
    ``QuotientModule`` with one copy per component and the basis of
    A_{g_j,d} as generator rows in copy j."""
    kept = [slices for slices in comp_slices if not slices[0].dim]
    n = len(kept)
    gens = [[{k * n + g: x for k, x in v.items()}
             for g, slices in enumerate(kept) for v in slices[d].basis()]
            for d in range(max_degree + 1)]
    return QuotientModule(alg, n, gens)


def dual_group_by_generators(alg, comp_slices, max_degree: int) -> RadicalData:
    """∩_g A·A_g over the components with A_{g,0} = 0, the kernel of
    a ↦ π(a ⊗ Σ_j e_j) on ``stacked_module``, the reference for
    ``smash.dual_group_shortcut``, which drops the G-degree-g block of
    copy g instead of eliminating generator rows."""
    module = stacked_module(alg, comp_slices, max_degree)
    slices = smash._trace_on_a(module, {g: ONE for g in range(module.n)}, max_degree)
    return RadicalData(slices, [alg.dim(d) - s.dim for d, s in enumerate(slices)])


def normal_in_every_degree(alg, x, slices, max_degree: int) -> bool:
    """x * S_d = S_d * x for every d with d + deg x within the bound."""
    return all(
        mul_elem_space(alg, x, slices[d], d) == mul_space_elem(alg, slices[d], d, x)
        for d in range(max_degree - x.degree + 1)
    )


def products_inside(alg, U: Subspace, e: int, V: Subspace, f: int, W: Subspace) -> bool:
    """U_e * V_f lies inside W_{e+f}; a full target holds every product."""
    if W.dim == alg.dim(e + f):
        return True
    return all(
        W.contains(alg.mul(u, e, v, f)) for u in U.basis() for v in V.basis()
    )


def isotypic_images(action, comp_slices, idempotents, max_degree: int):
    """(every image equals its component, the sum of the images) with the
    image of p_i on A_d spanned from p_i applied to every basis word."""
    matches = True
    grouplike = []
    for d in range(max_degree + 1):
        dim = action.alg.dim(d)
        union = Subspace(dim)
        for i, p in enumerate(idempotents):
            image = Subspace(dim)
            for k in range(dim):
                image.add(action.act(p, {k: ONE}, d))
            if image != comp_slices[i][d]:
                matches = False
            for v in image.basis():
                union.add(v)
        grouplike.append(union)
    return matches, grouplike


def transfer_by_products(alg, chars, comp_slices, fixed_dims, grouplike, j, max_degree: int):
    """(closed under products, xi', hdet' index, j', j' proportional to j)
    for the subalgebra with the given grouplike slices: every product of
    two slices tested against the slice of their degree, and the top
    component generator found among the minimal elements of each
    component intersected with the slices."""
    closed = all(
        products_inside(alg, grouplike[e], e, grouplike[f], f, grouplike[e + f])
        for e in range(max_degree + 1)
        for f in range(max_degree + 1 - e)
    )
    xi = series_quotient([s.dim for s in grouplike], fixed_dims, max_degree)
    ok, top = series_is_polynomial(xi)
    if not ok:
        return closed, xi, None, None, None
    gens = []
    for i, slices in enumerate(comp_slices):
        start = 0 if i == chars.group.identity else 1
        inside = [slices[d].intersect(grouplike[d]) for d in range(start, max_degree + 1)]
        d, first = next(((d, s) for d, s in enumerate(inside, start) if s.dim), (None, None))
        gens.append(None if first is None or first.dim > 1
                    else monic(alg, d, first.basis()[0]))
    hits = [i for i, f in enumerate(gens) if f is not None and f.degree == top]
    if len(hits) != 1:
        return closed, xi, None, None, None
    f = gens[hits[0]]
    both = Subspace.span(alg.dim(f.degree), [f.vec, j.vec]) if f.degree == j.degree else None
    return closed, xi, chars.group.inverse[hits[0]], f, both is not None and both.dim == 1


def verify_all_triples(hopf) -> list[str]:
    """Every Hopf axiom, associativity on every basis triple and the
    multiplicativity of Δ and ε on every basis pair; failure witnesses."""
    bad: list[str] = []
    rng = range(hopf.dim)
    lab = hopf.labels
    basis = hopf.basis_vec
    for i in rng:
        if hopf.mul_vec(hopf.unit, basis(i)) != basis(i):
            bad.append(f"unit: 1*{lab[i]} != {lab[i]}")
        if hopf.mul_vec(basis(i), hopf.unit) != basis(i):
            bad.append(f"unit: {lab[i]}*1 != {lab[i]}")
    for i in rng:
        for j in rng:
            for k in rng:
                if hopf.mul_vec(hopf.mult[i][j], basis(k)) != hopf.mul_vec(basis(i), hopf.mult[j][k]):
                    bad.append(f"associativity: ({lab[i]}*{lab[j]})*{lab[k]}")
    for i in rng:
        left: dict = {}
        right: dict = {}
        for j, k, c in hopf.comult[i]:
            for a, b, d in hopf.comult[j]:
                vec_addto(left, {(a, b, k): d}, c)
            for a, b, d in hopf.comult[k]:
                vec_addto(right, {(j, a, b): d}, c)
        if left != right:
            bad.append(f"coassociativity: {lab[i]}")
    for i in rng:
        lvec: Vec = {}
        rvec: Vec = {}
        for j, k, c in hopf.comult[i]:
            vec_addto(lvec, basis(k), c * hopf.counit[j])
            vec_addto(rvec, basis(j), c * hopf.counit[k])
        if lvec != basis(i) or rvec != basis(i):
            bad.append(f"counit: {lab[i]}")
    unit_tensor = {(i, j): a * b for i, a in hopf.unit.items() for j, b in hopf.unit.items()}
    if hopf.comult_vec(hopf.unit) != unit_tensor:
        bad.append("comultiplication: unit is not grouplike")
    if hopf.counit_vec(hopf.unit) != ONE:
        bad.append("counit: counit(1) != 1")
    for i in rng:
        for j in rng:
            want = hopf.tensor_mul(hopf.comult_vec(basis(i)), hopf.comult_vec(basis(j)))
            if hopf.comult_vec(hopf.mult[i][j]) != want:
                bad.append(f"comultiplication is not multiplicative: {lab[i]}*{lab[j]}")
            if hopf.counit_vec(hopf.mult[i][j]) != hopf.counit[i] * hopf.counit[j]:
                bad.append(f"counit is not multiplicative: {lab[i]}*{lab[j]}")
    for i in rng:
        left_vec: Vec = {}
        right_vec: Vec = {}
        for j, k, c in hopf.comult[i]:
            vec_addto(left_vec, hopf.mul_vec(hopf.antipode[j], basis(k)), c)
            vec_addto(right_vec, hopf.mul_vec(basis(j), hopf.antipode[k]), c)
        want = vec_scale(hopf.unit, hopf.counit[i])
        if left_vec != want:
            bad.append(f"antipode (left): {lab[i]}")
        if right_vec != want:
            bad.append(f"antipode (right): {lab[i]}")
    return bad


def integral_all_basis(hopf) -> Vec:
    """Λ with ε(Λ) = 1 from the common eigenvectors of every L_h − ε(h),
    checked as hΛ = ε(h)Λ = Λh against every basis element h; raises
    ValueError where ``HopfAlgebra.integral`` documents it."""
    kernel = dense_eigenvectors(hopf.dim, [(hopf.mult[i], hopf.counit[i])
                                           for i in range(hopf.dim)])
    if not kernel:
        raise ValueError("no left integral found")
    eps = hopf.counit_vec(kernel[0])
    if eps.is_zero():
        raise ValueError("integral is killed by the counit")
    lam = vec_scale(kernel[0], eps.inverse())
    for i in range(hopf.dim):
        want = vec_scale(lam, hopf.counit[i])
        if hopf.mul_vec(hopf.basis_vec(i), lam) != want or hopf.mul_vec(lam, hopf.basis_vec(i)) != want:
            raise ValueError("not a two-sided integral")
    return lam


def central_idempotents_all_basis(hopf, chars) -> list[Vec]:
    """p_χ = winding of ``integral_all_basis`` by χ⁻¹, checked as
    h p = χ(h) p = p h against every basis element h and χ'(p) = δ."""
    from ncreflect.hopf import winding_right_cols

    lam = integral_all_basis(hopf)
    out = []
    for ch in chars.chars:
        p = apply_cols(winding_right_cols(hopf, ch.inverse()), lam)
        for b in range(hopf.dim):
            want = vec_scale(p, ch.values[b])
            if hopf.mul_vec(hopf.basis_vec(b), p) != want or hopf.mul_vec(p, hopf.basis_vec(b)) != want:
                raise ValueError(f"projector for {ch.label} is not a χ-eigenvector")
        for other in chars.chars:
            if other(p) != (ONE if other is ch else ZERO):
                raise ValueError(f"{other.label} takes the wrong value on p_{ch.label}")
        out.append(p)
    return out


def char_key(ch) -> tuple:
    """A character's values on the whole basis, as canonical keys."""
    return tuple(c.key() for c in ch.values)


def linear_characters_by_enumeration(hopf) -> list:
    """Every homomorphism G -> k^x, from every assignment of an
    o(s)-th root of unity to each generator s of kG, propagated over the
    Cayley graph; sorted by ``char_key`` and labelled like
    ``hopf.group_linear_characters``."""
    from itertools import product

    from ncreflect.scalars import zeta

    group, gens = hopf.group, hopf.generators()
    orders = [group.element_order(g) for g in gens]
    chars = []
    for combo in product(*[range(o) for o in orders]):
        on_gens = {g: zeta(o, k) for g, o, k in zip(gens, orders, combo)}
        values = {group.identity: ONE}
        frontier, ok = [group.identity], True
        while frontier and ok:
            h = frontier.pop()
            for g in gens:
                t, val = group.table[g][h], on_gens[g] * values[h]
                if t not in values:
                    values[t] = val
                    frontier.append(t)
                elif values[t] != val:
                    ok = False
                    break
        if ok:
            chars.append(Character(hopf, [values[g] for g in range(group.order)]))
    chars.sort(key=char_key)
    for i, ch in enumerate(chars):
        ch.label = "triv" if all(v == ONE for v in ch.values) else f"chi{i}"
    return chars


def keyed_character_table(hopf, chars) -> list[list[int]]:
    """The convolution table of chars, each checked as an algebra map on
    every pair of basis elements and each product looked up by its keys
    on the whole basis; raises ValueError where ``CharacterGroup`` does."""
    for ch in chars:
        if ch(hopf.unit) != ONE or any(
                ch(hopf.mult[i][j]) != ch.values[i] * ch.values[j]
                for i in range(hopf.dim) for j in range(hopf.dim)):
            raise ValueError(f"character {ch.label!r} is not an algebra map")
    keys = {char_key(ch): i for i, ch in enumerate(chars)}
    if len(keys) != len(chars):
        raise ValueError("duplicate characters")
    table = []
    for a in chars:
        row = []
        for b in chars:
            got = keys.get(char_key(a.convolve(b)))
            if got is None:
                raise ValueError(f"characters are not closed under convolution: "
                                 f"{a.label} * {b.label}")
            row.append(got)
        table.append(row)
    return table


def index_by_key(chars, ch) -> int:
    """The index of the character with ch's keys on the whole basis."""
    key = char_key(ch)
    for i, c in enumerate(chars.chars):
        if char_key(c) == key:
            return i
    raise ValueError("character not in group")


def action_verify_all_pairs(action) -> list[str]:
    """The module-algebra laws with the module law checked on every pair
    of basis elements of H; failure witnesses as ``HopfAction.verify``
    words them."""
    bad: list[str] = []
    alg, hopf = action.alg, action.hopf
    lab = hopf.labels
    for j in range(alg.ngens):
        w = alg.weights[j]
        xj = alg.nf_word((j,))
        if action.act(hopf.unit, xj, w) != xj:
            bad.append(f"unit does not act as identity on {alg.gen_names[j]}")
        for a in range(hopf.dim):
            for b in range(hopf.dim):
                if action.act(hopf.mult[a][b], xj, w) != action.act(a, action.act(b, xj, w), w):
                    bad.append(f"action is not an H-module: ({lab[a]}*{lab[b]})"
                               f" on {alg.gen_names[j]}")
    for h in range(hopf.dim):
        for r, rel in enumerate(alg.relations):
            image = action.act_free(h, rel)
            _, vec = alg.nf(image) if image else (None, {})
            if vec:
                bad.append(f"{lab[h]} does not preserve relation {r}")
    return bad


def components_all_probes(action, chars, max_degree: int) -> list[list[Subspace]]:
    """slices[i][d]: the common eigenspace in A_d of every basis element h
    of H with eigenvalue chars[i](h)."""
    alg, nH = action.alg, action.hopf.dim
    return [[Subspace.span(alg.dim(d), dense_eigenvectors(
                alg.dim(d), [(action.columns(h, d), ch.values[h]) for h in range(nH)]))
             for d in range(max_degree + 1)]
            for ch in chars.chars]


def components_per_character(action, chars, max_degree: int) -> list[list[Subspace]]:
    """slices[i][d]: one elimination per character and degree, of the rows
    of every C_s − chars[i](s) over the algebra generators s of H, the
    reference for ``invariants.graded_components``, which refines the joint
    eigenspaces one probe at a time."""
    alg, probes = action.alg, action.hopf.generators()
    return [[Subspace.span(alg.dim(d), dense_eigenvectors(
                alg.dim(d), [(action.columns(s, d), ch.values[s]) for s in probes]))
             for d in range(max_degree + 1)]
            for ch in chars.chars]


def multiplicativity_by_products(action, chars, comps, max_degree: int) -> list[str]:
    """Every A_g * A_h that leaves A_{gh} in some degree, found by forming
    every product of two slices."""
    alg, g0 = action.alg, chars.group
    n = len(chars)
    bad = []
    for i in range(n):
        for j in range(n):
            k = g0.table[i][j]
            for e in range(max_degree + 1):
                for f in range(max_degree + 1 - e):
                    if not products_inside(alg, comps[i][e], e, comps[j][f], f,
                                           comps[k][e + f]):
                        bad.append(f"A_{g0.labels[i]} * A_{g0.labels[j]} leaves "
                                   f"A_{g0.labels[k]} in degree {e + f}")
    return bad


def certificate_per_character(action, chars, comps, max_degree: int, projectors) -> list[str]:
    """The component certificate with (b) checked slice by slice: in each
    degree, each slice in turn must pass (a), the eigenvector test at the
    algebra generators of H, and (b), dim = tr(p_i | A_d), from the trace
    of every basis element in the support of some p_i."""
    probes = action.hopf.generators()
    support = {h for p in projectors for h in p}
    for d in range(max_degree + 1):
        traces = {}
        for h in support:
            cols = action.columns(h, d)
            traces[h] = sum((col[k] for k, col in enumerate(cols) if k in col), ZERO)
        for i, ch in enumerate(chars.chars):
            space = comps[i][d]
            basis = space.basis()
            for h in probes:
                cols, value = action.columns(h, d), ch.values[h]
                for v in basis:
                    if apply_cols(cols, v) != vec_scale(v, value):
                        return [f"A_{ch.label} in degree {d} leaves its eigenspace"]
            trace = sum((c * traces[h] for h, c in projectors[i].items()), ZERO)
            if trace != space.dim:
                return [f"A_{ch.label} in degree {d} has dimension {space.dim}, "
                        f"its projector trace {show_scalar(trace)[0]}"]
    return []


def commutator_ideal_all_pairs(hopf) -> Subspace:
    """The span of every basis commutator, closed by multiplying its whole
    basis by every basis element on each side until the span stops
    growing."""
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


def smash_blocks_by_products(hopf, idempotents):
    """(adapted basis, block of each basis vector, coordinates of each
    basis vector of H) for the blocks of the idempotents and 1 − Σ E:
    block by block, the reduced echelon basis of the span of every hE."""
    blocks = list(idempotents)
    rest = dict(hopf.unit)
    for e in blocks:
        vec_addto(rest, e, -ONE)
    if rest:
        blocks.append(rest)
    basis, block_of, coords = [], [], [{} for _ in range(hopf.dim)]
    for b, e in enumerate(blocks):
        products = [hopf.mul_vec(hopf.basis_vec(h), e) for h in range(hopf.dim)]
        rows = Subspace.span(hopf.dim, products).basis()
        for h, he in enumerate(products):
            for j, row in enumerate(rows, len(basis)):
                if min(row) in he:
                    coords[h][j] = he[min(row)]
        basis.extend(rows)
        block_of.extend([b] * len(rows))
    return basis, block_of, coords


def constrained_left_ideal(action, terms, max_degree: int) -> list[Subspace]:
    """Slices of {w : w = Σ b (n·a), 0 = Σ b (z·a)} where each summand
    runs over one (n, z) pair of H-elements and arbitrary a, b in A.

    Per degree this is the image of the combined bilinear map intersected
    with (A_d, 0); the b-factor makes every slice family a left ideal.
    """
    alg = action.alg
    out: list[Subspace] = []
    for d in range(max_degree + 1):
        dim = alg.dim(d)
        paired = Subspace(2 * dim)
        for n, z in terms:
            for f in range(d + 1):
                e = d - f
                for a in range(alg.dim(f)):
                    na = action.act(n, {a: ONE}, f)
                    za = action.act(z, {a: ONE}, f)
                    for b in range(alg.dim(e)):
                        top = alg.mul({b: ONE}, e, na, f)
                        bot = alg.mul({b: ONE}, e, za, f)
                        vec = dict(top)
                        for k, c in bot.items():
                            vec[dim + k] = c
                        paired.add(vec)
        window = Subspace.span(2 * dim, [{k: ONE} for k in range(dim)])
        inter = zassenhaus_intersect(paired, window)
        out.append(Subspace.span(dim, [dict(v) for v in inter.basis()]))
    return out


def kac_palyutkin_idempotents() -> list[dict]:
    """The central idempotents of the Kac-Paljutkin algebra for eps, g,
    gp, ggp in closed form."""
    eighth = Cyc.rational(1, 8)
    plus = {i: eighth for i in range(8)}  # (1+x+y+xy+z+xz+yz+xyz)/8
    minus = {i: (eighth if i < 4 else -eighth) for i in range(8)}
    block = [ONE, MINUS_ONE, MINUS_ONE, ONE]  # 1 - x - y + xy
    p_gp: dict = {}
    p_ggp: dict = {}
    for i in range(4):
        p_gp[i] = block[i] * eighth
        p_ggp[i] = block[i] * eighth
        p_gp[i + 4] = I * block[i] * eighth
        p_ggp[i + 4] = -I * block[i] * eighth
    return [plus, minus, p_gp, p_ggp]


def matrix_block_units() -> dict[str, dict]:
    """The 2x2 matrix block of the Kac-Paljutkin algebra complementary to
    the character idempotents: diagonal units f3 = (1-x+y-xy)/4 and
    f4 = (1+x-y-xy)/4, off-diagonal units m12 = f3 z = z f4 and
    m21 = f4 z = z f3."""
    q = Cyc.rational(1, 4)
    return {
        "f3": {0: q, 1: -q, 2: q, 3: -q},
        "f4": {0: q, 1: q, 2: -q, 3: -q},
        "m12": {4: q, 5: -q, 6: q, 7: -q},
        "m21": {4: q, 5: q, 6: -q, 7: -q},
    }


def is_abelian(group: Group) -> bool:
    return all(group.table[a][b] == group.table[b][a]
               for a in range(group.order) for b in range(group.order))


def greedy_generating_set(group: Group) -> list[int]:
    """The elements, in index order, that lie outside the subgroup the
    ones before them generate."""
    gens: list[int] = []
    have = {group.identity}
    for g in range(group.order):
        if g not in have:
            gens.append(g)
            have = group.closure(gens)
    return gens


def commutator_subgroup(group: Group) -> set[int]:
    """[G, G]: the closure of every commutator a b a^-1 b^-1."""
    t, inv = group.table, group.inverse
    return group.closure({t[t[a][b]][t[inv[a]][inv[b]]]
                          for a in range(group.order) for b in range(group.order)})


def symmetric3() -> Group:
    """S3 as the permutations of (0, 1, 2), composed right to left."""
    perms = list(permutations(range(3)))
    table = [[perms.index(tuple(a[b[k]] for k in range(3))) for b in perms] for a in perms]
    return Group(["".join(map(str, p)) for p in perms], table)


def downup_s3_spec() -> dict:
    """The downup algebra graded by S3, d ↦ (01) and u ↦ (12), as a spec:
    a dual-group action of k^{S3} that no preset ships."""
    s3 = symmetric3()
    return {"format": "ncreflect-spec/1", "name": "downup-dualS3",
            "field": {"conductor": 1},
            "algebra": {"generators": [{"name": "d", "degree": 1}, {"name": "u", "degree": 1}],
                        "relations": ["d*u^2 - u^2*d", "d^2*u - u*d^2"]},
            "action": {"kind": "dual_group",
                       "group": {"labels": s3.labels, "table": s3.table},
                       "generator_degrees": ["102", "021"]}}


def permutation_group(gens: list[tuple[int, ...]]) -> Group:
    """The group the permutations gens generate, composed right to left:
    the identity "e" first, then each permutation, labelled by its images,
    in the order a breadth-first closure meets it."""
    n = len(gens[0])
    elems = [tuple(range(n))]
    index = {elems[0]: 0}
    for a in elems:  # grows while it is read
        for g in gens:
            t = tuple(g[a[k]] for k in range(n))
            if t not in index:
                index[t] = len(elems)
                elems.append(t)
    table = [[index[tuple(a[b[k]] for k in range(n))] for b in elems] for a in elems]
    return Group(["e"] + ["".join(map(str, p)) for p in elems[1:]], table)


def small_permutation_groups() -> dict[str, Group]:
    """S3, D8, Q8, A4 and S4 as permutation groups; Q8 acts on
    ±1, ±i, ±j, ±k (points 0 to 7) by left multiplication by i and j."""
    return {
        "S3": permutation_group([(1, 0, 2), (1, 2, 0)]),
        "D8": permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)]),
        "Q8": permutation_group([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]),
        "A4": permutation_group([(1, 2, 0, 3), (1, 0, 3, 2)]),
        "S4": permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
    }


def group_tables() -> list[Group]:
    """The group of every shipped preset built from a table,
    ``Group.cyclic(n)`` for n ≤ 12, and S3, D8, Q8, A4 and S4."""
    shipped = [p.action.group for p in (catalog.build(name, 4) for name in catalog.shipped())
               if p.action.group is not None]
    return (shipped + [Group.cyclic(n) for n in range(1, 13)]
            + list(small_permutation_groups().values()))


def group_table_id(group: Group) -> str:
    return f"order{group.order}-{'-'.join(group.labels[:3])}"


def unmarked(preset) -> tuple:
    """A plain ``HopfAlgebra`` with the structure constants of
    preset.hopf, a ``from_matrices`` action with the same generator
    images, and the same characters: kG or k^G with nothing read off its
    group table, so every check takes its full path."""
    h = preset.hopf
    plain = HopfAlgebra(h.labels, h.unit, h.mult, h.comult, h.counit, h.antipode)
    action = HopfAction.from_matrices(plain, preset.action.alg, preset.action.gen_images)
    chars = CharacterGroup(plain, [Character(plain, ch.values, ch.label)
                                   for ch in preset.chars.chars])
    return plain, action, chars


def in_square_by_span(space: Subspace, x: dict, dim: int) -> bool:
    """x in space ⊗ space, decided in dimension dim² against the span of
    every u ⊗ w over a basis of the space."""
    basis = space.basis()
    square = Subspace(dim * dim)
    for u in basis:
        for w in basis:
            square.add({i * dim + j: a * b for i, a in u.items() for j, b in w.items()})
    return square.contains({i * dim + j: c for (i, j), c in x.items()})


def rife_by_tensor_span(hopf, chars, idempotents) -> bool:
    """Δ(Λ) − Σ_g p_g ⊗ p_{g⁻¹} in I_com ⊗ I_com, each term a dense
    tensor and the square of I_com spanned in dimension dim H²."""
    residual = dict(hopf.comult_vec(hopf.integral()))
    g0 = chars.group
    for g in range(g0.order):
        p, q = idempotents[g], idempotents[g0.inverse[g]]
        vec_addto(residual, {(i, j): a * b for i, a in p.items() for j, b in q.items()},
                  -ONE)
    return not residual or in_square_by_span(commutator_ideal(hopf), residual, hopf.dim)


def block_count_by_ideal(hopf, chars) -> bool:
    """dim I_com + |chars| = dim H with I_com built by products
    (``hopf.commutator_ideal``), the reference for
    ``smash.rife_hopf_check`` on kG, whose ``commutator_dim`` reads
    dim I_com off [G, G] in the table."""
    n = len(chars)
    return n == hopf.dim or commutator_ideal(hopf).dim + n == hopf.dim


def direct_product(a: Group, b: Group) -> Group:
    """a x b, element (i, j) at index i * |b| + j, labelled "e", a single
    factor's label, or "ai.bj"."""
    labels = []
    for i in range(a.order):
        for j in range(b.order):
            if i == a.identity and j == b.identity:
                labels.append("e")
            elif i == a.identity:
                labels.append(b.labels[j])
            elif j == b.identity:
                labels.append(a.labels[i])
            else:
                labels.append(f"{a.labels[i]}.{b.labels[j]}")
    n = b.order
    table = [
        [a.table[i][k] * n + b.table[j][m] for k in range(a.order) for m in range(b.order)]
        for i in range(a.order)
        for j in range(b.order)
    ]
    return Group(labels, table)


def project_by_reduce(ech: SparseEch, position: dict[int, int], c: int | None) -> Vec:
    """The image of carrier column c in M_d: the unit vector at c reduced
    modulo the relation rows, over the basis columns at ``position``.  A
    label of a killed G-degree block has no column (c None) and is 0."""
    if c is None:
        return {}
    return {position[k]: x for k, x in ech.reduce({c: ONE}).items()}


def free_words(nletters: int, weights: list[int], degree: int) -> list[Word]:
    if degree == 0:
        return [()]
    out: list[Word] = []
    for i in range(nletters):
        if weights[i] <= degree:
            out.extend((i,) + rest for rest in free_words(nletters, weights, degree - weights[i]))
    return out


class QuotientOracle:
    """Full free-slice elimination of a presentation, one degree at a time."""

    def __init__(self, nletters: int, relations: list[FreePoly], weights: list[int] | None = None):
        self.nletters = nletters
        self.weights = weights if weights is not None else [1] * nletters
        self.relations = relations
        self._slices: dict = {}

    def slice(self, degree: int):
        if degree not in self._slices:
            self._slices[degree] = self._eliminate(degree)
        return self._slices[degree]

    def _eliminate(self, degree: int):
        words = sorted(free_words(self.nletters, self.weights, degree), reverse=True)
        idx = {w: c for c, w in enumerate(words)}
        ech = SparseEch(len(words))
        for rel in self.relations:
            n = p_degree(rel, self.weights)
            for a in range(degree - n + 1):
                for u in free_words(self.nletters, self.weights, a):
                    for v in free_words(self.nletters, self.weights, degree - n - a):
                        vec: dict[int, Cyc] = {}
                        for w, c in rel.items():
                            pos = idx[u + w + v]
                            cur = vec.get(pos)
                            new = c if cur is None else cur + c
                            if new.is_zero():
                                if cur is not None:
                                    del vec[pos]
                            else:
                                vec[pos] = new
                        ech.insert(vec)
        normal = sorted(words[c] for c in range(len(words)) if c not in ech.rows)
        return words, idx, ech, normal

    def dim(self, degree: int) -> int:
        return len(self.slice(degree)[3])

    def basis(self, degree: int) -> list[Word]:
        return self.slice(degree)[3]

    def nf(self, word: Word) -> dict[Word, Cyc]:
        degree = sum(self.weights[i] for i in word)
        words, idx, ech, _ = self.slice(degree)
        reduced = ech.reduce({idx[word]: ONE})
        return {words[c]: coeff for c, coeff in reduced.items()}


# ---------------------------------------------------------------------------
# the Fraction cyclotomic scalar


_FRACTION_POW: dict[int, list[tuple[Fraction, ...]]] = {}


def _fraction_powtab(n: int) -> list[tuple[Fraction, ...]]:
    """Row e is zeta_n^e reduced modulo Phi_n, for 0 <= e < n."""
    if n in _FRACTION_POW:
        return _FRACTION_POW[n]
    phi = euler_phi(n)
    top = [-Fraction(c) for c in cyclotomic(n)[:phi]]  # z^phi = top(z)
    rows = []
    cur = [Fraction(0)] * phi
    cur[0] = Fraction(1)
    for _ in range(n):
        rows.append(tuple(cur))
        spill = cur[phi - 1]
        cur = [Fraction(0)] + cur[: phi - 1]
        if spill:
            cur = [a + spill * t for a, t in zip(cur, top)]
    _FRACTION_POW[n] = rows
    return rows


def _fraction_embtab(n: int, m: int) -> list[tuple[Fraction, ...]]:
    """Row j is zeta_n^j expressed in the conductor-m basis (n divides m)."""
    pw = _fraction_powtab(m)
    return [pw[(j * (m // n)) % m] for j in range(euler_phi(n))]


def _fraction_poly_inverse(a: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    """Inverse of a modulo Phi (extended Euclid over Q[z])."""

    def strip(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = [Fraction(c) for c in phi], strip(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
        r = list(r0)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + len(r1) - 1] / r1[-1]
            q[k] = c
            if c:
                for j, dj in enumerate(r1):
                    r[k + j] -= c * dj
        strip(r)
        qs1 = [Fraction(0)] * (len(q) + len(s1) - 1) if (q and s1) else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs1[i + j] += qi * sj
        news = [Fraction(0)] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            news[i] += c
        for i, c in enumerate(qs1):
            news[i] -= c
        r0, r1, s0, s1 = r1, r, s1, strip(news)
    if len(r0) != 1:
        raise ZeroDivisionError("scalar division by zero")
    return [c / r0[0] for c in s0]


def _fraction_solve(rows: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]):
    """x with sum_j x_j rows[j] == target, or None (rows independent)."""
    k, dim = len(rows), len(target)
    # augmented system: one equation per coordinate, one unknown per row
    m = [[rows[j][t] for j in range(k)] + [target[t]] for t in range(dim)]
    r = 0
    pivots = []
    for col in range(k):
        hit = next((i for i in range(r, dim) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(dim):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if any(m[i][k] for i in range(r, dim)):
        return None
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = m[i][k]
    return tuple(x)


class FractionCyc:
    """An element of Q(zeta_n): Fraction coefficients modulo Phi_n.

    The same invariant as ``Cyc``: a rational value has conductor 1.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, c):
        c = tuple(Fraction(x) for x in c)
        if n != 1 and not any(c[1:]):
            n, c = 1, (c[0],)
        self.n = n
        self.c = c

    def _lift(self, m: int) -> tuple[Fraction, ...]:
        if m == self.n:
            return self.c
        out = [Fraction(0)] * euler_phi(m)
        for cj, row in zip(self.c, _fraction_embtab(self.n, m)):
            for t in range(len(out)):
                out[t] += cj * row[t]
        return tuple(out)

    def _join(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(1, (other,))
        m = self.n * other.n // gcd(self.n, other.n)
        return m, self._lift(m), other._lift(m)

    def is_zero(self) -> bool:
        return self.n == 1 and not self.c[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError("not a rational scalar")
        return self.c[0]

    def __add__(self, other):
        n, a, b = self._join(other)
        return FractionCyc(n, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n, a, b = self._join(other)
        return FractionCyc(n, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return FractionCyc(self.n, [-x for x in self.c])

    def __mul__(self, other):
        n, a, b = self._join(other)
        phi = len(a)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        out = conv[:phi]
        pw = _fraction_powtab(n) if phi > 1 else None
        for e in range(phi, 2 * phi - 1):
            for t in range(phi):
                out[t] += conv[e] * pw[e % n][t]
        return FractionCyc(n, out)

    def inverse(self):
        if self.n == 1:
            if not self.c[0]:
                raise ZeroDivisionError("scalar division by zero")
            return FractionCyc(1, (1 / self.c[0],))
        inv = _fraction_poly_inverse(list(self.c), cyclotomic(self.n))
        phi = euler_phi(self.n)
        return FractionCyc(self.n, (inv + [Fraction(0)] * phi)[:phi])

    def __truediv__(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(1, (other,))
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        n, a, b = self._join(other)
        return a == b

    def key(self) -> tuple:
        """Coefficients at the minimal conductor."""
        n, c = self.n, self.c
        if n != 1:
            for d in divisors(n)[:-1]:
                sol = _fraction_solve(_fraction_embtab(d, n), c)
                if sol is not None:
                    return d, sol
        return n, c

    def __hash__(self) -> int:
        """A rational value hashes as its Fraction, so as the equal int."""
        n, c = self.key()
        return hash(c[0]) if n == 1 else hash((n, c))


def tp_proportional(p: TPoly, q: TPoly) -> bool:
    """p and q agree up to a nonzero scalar (both zero counts)."""
    if not p or not q:
        return not p and not q
    if set(p) != set(q):
        return False
    e = min(p)
    ratio = q[e] / p[e]
    return all(q[e2] == c * ratio for e2, c in p.items())


def trace_matrix_determinant(chars, cocycles, model) -> TPoly:
    """det of the trace pairing by Laplace expansion of its entry table:
    |G| c_{g,h} where gh = 1, nothing elsewhere."""
    g0 = chars.group
    n = g0.order
    entries = [[None] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            if g0.table[g][h] == g0.identity:
                entries[g][h] = vec_scale(model.to_poly(cocycles.table[g][h]),
                                          Cyc.rational(n))
    return tp_det(entries, model.nvars)
