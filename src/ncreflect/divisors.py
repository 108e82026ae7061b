"""Degree-one left and right divisor lines of a homogeneous element.

A line k v with v in A_1 divides f from the left when f = v c for some
c in A_{deg f - 1}, that is when f lies in the image of left
multiplication by v; right divisors are defined symmetrically.  Two
modes are provided.

Candidates mode tests a finite family of lines: the degree-one
generators, the combinations x_i + z x_j over the roots of unity z of
the working conductor, and any extra candidates supplied by the caller.
Membership is decided by an exact linear solve, which also produces the
cofactor.  The family depends on A_1, the conductor and the extra lines
alone, so it is formed once per algebra and kept with A's other derived
tables (``GradedAlgebra.derived``), keyed by the conductor and the extra
lines: both sides of every element, the Jacobian's and the
arrangement's in one analysis, read the same list.

Certificate mode (two-generator algebras only) determines the complete
set of divisor lines.  With v = s x_1 + t x_2 symbolic, f = v c is
solvable exactly when the augmented matrix [M(s,t) | f] of left
multiplication by v drops rank, so the divisor lines are the common
projective zeros of its maximal minors.  The gcd of these binary forms
is computed by exact Euclidean division and then split into lines by
trial division against the candidate family; a nonconstant residual
factor is reported as a warning, since it would describe divisor lines
outside the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .ncalg import Elem, GradedAlgebra, cofactor, monic
from .scalars import Cyc, ONE, ZERO, addmul, zeta
from .structure import tp_det

# A binary form sum_k c[k] s^k t^(n-k) as its coefficient list c[0..n].
Form = list[Cyc]


# ---------------------------------------------------------------------------
# exact arithmetic with binary forms


def form_degree(form: Form) -> int:
    return len(form) - 1


def form_eval(form: Form, s0: Cyc, t0: Cyc) -> Cyc:
    n = form_degree(form)
    total = None
    for k, c in enumerate(form):
        if c.is_zero():
            continue
        mono = s0 ** k * t0 ** (n - k)
        if mono:
            total = addmul(total, c, mono)
    return ZERO if total is None else total


def form_div_linear(form: Form, s0: Cyc, t0: Cyc) -> Form:
    """Exact quotient by the linear form t0 s - s0 t vanishing at (s0, t0)."""
    n = form_degree(form)
    if n < 1:
        raise ValueError("cannot divide a constant form")
    quo: Form = [ZERO] * n
    if not s0.is_zero():
        # c_k = t0 q_{k-1} - s0 q_k, solved from the bottom coefficient up
        prev = ZERO
        for k in range(n):
            quo[k] = (t0 * prev - form[k]) / s0
            prev = quo[k]
        if form[n] != t0 * prev:
            raise ValueError("form is not divisible by the given line")
    else:
        if not form[0].is_zero():
            raise ValueError("form is not divisible by the given line")
        for k in range(n):
            quo[k] = form[k + 1] / t0
    return quo


def _poly_divmod(a: list[Cyc], b: list[Cyc]) -> tuple[list[Cyc], list[Cyc]]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        if a[-1].is_zero():
            a.pop()
            continue
        shift = len(a) - 1 - db
        factor = a[-1] / lead
        for k in range(db + 1):
            a[shift + k] = a[shift + k] - factor * b[k]
        a.pop()
    while a and a[-1].is_zero():
        a.pop()
    return [], a  # only the remainder is needed


def _poly_gcd(a: list[Cyc], b: list[Cyc]) -> list[Cyc]:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [c / a[-1] for c in a] if a else a


def gcd_of_forms(forms: list[Form]) -> Form | None:
    """Monic gcd of nonzero binary forms; None when all forms vanish."""
    cleaned = []
    for form in forms:
        top = max((k for k, c in enumerate(form) if not c.is_zero()), default=-1)
        if top >= 0:
            cleaned.append((form, top))
    if not cleaned:
        return None
    t_val = min(form_degree(f) - top for f, top in cleaned)
    polys = [f[: top + 1] for f, top in cleaned]
    g = polys[0]
    for p in polys[1:]:
        g = _poly_gcd(g, p)
    g = [c / g[-1] for c in g]
    return g + [ZERO] * t_val


# ---------------------------------------------------------------------------
# candidate lines and the membership solve


def candidate_lines(
    alg: GradedAlgebra, conductor: int, extra: Sequence[Elem | str] = ()
) -> list[Elem]:
    """Degree-one generators, pairwise combinations over the roots of
    unity of the conductor, and any extra lines, deduplicated.  An extra
    line may be given as the text of a degree-one element, as a spec's
    ``divisor_candidates`` hold them."""
    out: list[Elem] = []
    seen: set = set()

    def push(e: Elem) -> None:
        line = monic(alg, 1, e.vec)
        key = _line_key(line)
        if key not in seen:
            seen.add(key)
            out.append(line)

    ones = [i for i in range(alg.ngens) if alg.weights[i] == 1]
    for i in ones:
        push(alg.element(alg.gen_names[i]))
    z = zeta(conductor)
    for i, j in combinations(ones, 2):
        xi, xj = alg.element(alg.gen_names[i]), alg.element(alg.gen_names[j])
        root = ONE
        for _ in range(conductor):
            push(xi + xj.scale(root))
            root = root * z
    for e in extra:
        if isinstance(e, str):
            e = alg.element(e, 1)
        if e.degree != 1 or e.is_zero():
            raise ValueError("extra candidates must be nonzero of degree 1")
        push(e)
    return out


def _letter_of(alg: GradedAlgebra, pos: int) -> int:
    return alg.basis_words(1)[pos][0]


# ---------------------------------------------------------------------------
# reports


@dataclass
class DivisorReport:
    side: str
    mode: str
    lines: list[Elem]
    cofactors: list[Elem]
    certificate: Form | None
    residual_degree: int
    residual_warning: bool


def _line_key(e: Elem):
    return tuple(sorted((k, c.key()) for k, c in e.vec.items()))


def _sorted_lines(pairs: list[tuple[Elem, Elem]]) -> tuple[list[Elem], list[Elem]]:
    pairs = sorted(pairs, key=lambda p: _line_key(p[0]))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _candidates_report(
    alg: GradedAlgebra, f: Elem, side: str, cands: list[Elem]
) -> DivisorReport:
    pairs = []
    for v in cands:
        cof = cofactor(alg, v, f, side)
        if cof is not None:
            pairs.append((v, cof))
    lines, cofs = _sorted_lines(pairs)
    return DivisorReport(side, "candidates", lines, cofs, None, 0, False)


def _certificate_report(
    alg: GradedAlgebra, f: Elem, side: str, cands: list[Elem]
) -> DivisorReport:
    if alg.dim(1) != 2:
        raise ValueError("certificate mode needs a two-generator degree-one slice")
    d = f.degree
    lower, target = alg.dim(d - 1), alg.dim(d)
    letters = [_letter_of(alg, 0), _letter_of(alg, 1)]
    part = [
        alg.left_letter(i, d - 1) if side == "left" else alg.right_letter(i, d - 1)
        for i in letters
    ]
    entries: list[list[dict | None]] = []
    for row in range(target):
        line: list[dict | None] = []
        for col in range(lower):
            e = {}
            a = part[0][col].get(row, ZERO)
            b = part[1][col].get(row, ZERO)
            if not a.is_zero():
                e[(1, 0)] = a
            if not b.is_zero():
                e[(0, 1)] = b
            line.append(e or None)
        c = f.vec.get(row, ZERO)
        line.append({(0, 0): c} if not c.is_zero() else None)
        entries.append(line)
    minors = []
    for rows in combinations(range(target), lower + 1):
        det = tp_det([entries[r] for r in rows], 2)
        form: Form = [ZERO] * (lower + 1)
        for (i, j), c in det.items():
            form[i] = form[i] + c
        minors.append(form)
    cert = gcd_of_forms(minors)
    if cert is None:
        # no rank obstruction at all: fall back to candidate testing but
        # flag that the certificate is inconclusive
        report = _candidates_report(alg, f, side, cands)
        return DivisorReport(side, "certificate", report.lines, report.cofactors,
                             None, -1, True)
    pairs = []
    residual = list(cert)
    for v in cands:
        s0, t0 = v.vec.get(0, ZERO), v.vec.get(1, ZERO)
        if form_eval(residual, s0, t0).is_zero() and form_degree(residual) >= 1:
            cof = cofactor(alg, v, f, side)
            if cof is not None:
                pairs.append((v, cof))
            while form_degree(residual) >= 1 and form_eval(residual, s0, t0).is_zero():
                residual = form_div_linear(residual, s0, t0)
    lines, cofs = _sorted_lines(pairs)
    res_deg = form_degree(residual)
    return DivisorReport(side, "certificate", lines, cofs, cert, res_deg, res_deg > 0)


def divisor_report(
    alg: GradedAlgebra,
    f: Elem,
    side: str = "left",
    mode: str | None = None,
    conductor: int = 4,
    extra_candidates: Sequence[Elem | str] = (),
) -> DivisorReport:
    """``mode`` None is certificate mode on two generators of degree one,
    candidates mode otherwise."""
    if mode is None:
        mode = "certificate" if alg.ngens == 2 and alg.dim(1) == 2 else "candidates"
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    if f.is_zero():
        raise ValueError("divisors of the zero element are undefined")
    if f.degree == 0:
        return DivisorReport(side, mode, [], [], None, 0, False)
    extra_key = tuple(e if isinstance(e, str) else (e.degree, _line_key(e))
                      for e in extra_candidates)
    cands = alg.derived(("candidate lines", conductor, extra_key),
                        lambda: candidate_lines(alg, conductor, extra_candidates))
    if mode == "candidates":
        return _candidates_report(alg, f, side, cands)
    if mode == "certificate":
        return _certificate_report(alg, f, side, cands)
    raise ValueError("mode must be candidates or certificate")
