"""The full analysis pipeline and the report document it produces.

``analyze`` drives every module over one built presentation: verification
of the Hopf structure and the action, graded components, fixed ring,
homological determinant, Jacobian / arrangement / discriminant, the two
series, the radical and dis-radical ideals, divisor sets, and the
structural identities (cocycles, Frobenius pairing, Steinberg
factorization, Nakayama twist, isotypic transfer).

The result is a JSON-ready document with a fixed section layout plus a
flat list of named checks.  Each check carries a class:

* ``verification`` -- the input data itself (Hopf axioms, module-algebra
  laws, the component decomposition being a grading);
* ``hypothesis``   -- running assumptions the method needs (free
  components, polynomial fixed ring, polynomial A over R);
* ``theorem``      -- identities that must hold whenever the hypotheses
  do; a failure here is a genuine bug or an out-of-scope input;
* ``observation``  -- facts that legitimately vary by example (j = a,
  the radical being the whole Jacobian ideal, tepidness) and never
  affect the exit code.

A presentation may assert ``as_regular_fixed_ring: false``; hypothesis
failures are then the expected outcome and downgrade to ``skip`` so a
run over such an example still exits 0.  Exit codes: 0 all pass, 3 a
verification failure, 4 an unexpected hypothesis failure, 5 a theorem
failure (verification dominates hypothesis dominates theorem).

Polynomial values are printed with leading coefficient 1 in graded-lex
order next to a ``scalar_class`` note holding the removed coefficient,
so equality up to scalar is a string comparison on ``poly``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .divisors import DivisorReport, divisor_report
from .exprs import show, show_scalar
from .hopf import central_idempotents
from .invariants import (
    check_component_multiplicativity,
    component_report,
    covariant_data,
    fixed_ring,
    homological_determinant,
    jacobian_data,
    proportional,
    series_is_polynomial,
    series_quotient,
)
from .linalg import Vec
from .ncalg import DegreeOverflow, Elem, GradedAlgebra
from .presets.catalog import Preset
from .smash import (
    dis_radical,
    dual_group_shortcut,
    principal_radical,
    radical_slices,
    rife_action_check,
)
from .structure import (
    FixedPolyModel,
    TPoly,
    cocycle_table,
    frobenius_pairing,
    isotypic_series,
    jacobian_transfer,
    nakayama_check,
    steinberg_factorization,
    trace_discriminant,
)

REPORT_FORMAT = "ncreflect-report/1"

SECTIONS = [
    "hilbert", "components", "hdet", "jacobian", "arrangement",
    "discriminant", "xi", "covariant", "radical", "dis_radical",
    "divisors", "checks",
]

_EXIT_BY_CLASS = {"verification": 3, "hypothesis": 4, "theorem": 5}


@dataclass
class Check:
    name: str
    klass: str  # verification | hypothesis | theorem | observation
    status: str  # pass | fail | skip
    detail: str = ""

    def doc(self) -> dict:
        return {"name": self.name, "class": self.klass,
                "status": self.status, "detail": self.detail}


@dataclass
class AnalysisResult:
    document: dict
    checks: list[Check]
    exit_code: int


def exit_code_of(checks: list[Check]) -> int:
    for klass in ("verification", "hypothesis", "theorem"):
        if any(c.klass == klass and c.status == "fail" for c in checks):
            return _EXIT_BY_CLASS[klass]
    return 0


# ---------------------------------------------------------------------------
# renderers


def elem_doc(alg: GradedAlgebra, e: Elem | None) -> dict | None:
    """Normalized printing: graded-lex terms, leading coefficient 1, the
    removed coefficient kept as the scalar class."""
    if e is None:
        return None
    if e.is_zero():
        return {"degree": e.degree, "poly": "0", "scalar_class": "0"}
    words = alg.basis_words(e.degree)
    poly = {words[k]: c for k, c in e.vec.items()}
    lead = min(poly, key=lambda w: (len(w), w))
    c = poly[lead]
    unit = {w: x / c for w, x in poly.items()}
    return {"degree": e.degree, "poly": show(unit, alg.gen_names),
            "scalar_class": show_scalar(c)[0]}


def tpoly_doc(p: TPoly | None, nvars: int) -> dict | None:
    """The same convention for polynomials in the fixed-ring generators,
    written in the variables t1..tk."""
    if p is None:
        return None
    if not p:
        return {"poly": "0", "scalar_class": "0"}
    order = sorted(p, key=lambda e: (sum(e), e))
    c = p[order[0]]
    terms = []
    for e in order:
        mono = "*".join(
            f"t{i + 1}" if k == 1 else f"t{i + 1}^{k}"
            for i, k in enumerate(e) if k
        )
        s, compound = show_scalar(p[e] / c)
        if not mono:
            terms.append(f"({s})" if compound else s)
        elif s == "1":
            terms.append(mono)
        else:
            terms.append((f"({s})" if compound else s) + "*" + mono)
    return {"poly": " + ".join(terms), "scalar_class": show_scalar(c)[0]}


def _vec_text(vec: Vec, labels: list[str]) -> dict[str, str]:
    return {labels[k]: show_scalar(vec[k])[0] for k in sorted(vec)}


def _series_doc(coeffs: list[Fraction]) -> list:
    return [int(c) if c == int(c) else str(c) for c in coeffs]


def _divisor_side_doc(alg: GradedAlgebra, rep: DivisorReport) -> dict:
    out: dict = {
        "mode": rep.mode,
        "lines": [elem_doc(alg, e)["poly"] for e in rep.lines],
        "cofactors": [elem_doc(alg, e)["poly"] for e in rep.cofactors],
        "residual_degree": rep.residual_degree,
        "residual_warning": rep.residual_warning,
    }
    if rep.certificate is not None:
        out["certificate"] = [show_scalar(c)[0] for c in rep.certificate]
    return out


# ---------------------------------------------------------------------------
# the pipeline


def analyze(preset: Preset, max_degree: int | None = None) -> AnalysisResult:
    alg = preset.algebra
    action, chars, hopf = preset.action, preset.chars, preset.hopf
    D = max_degree if max_degree is not None else alg.max_degree
    if D > alg.max_degree:
        raise ValueError(
            f"the algebra was built with bound {alg.max_degree}, "
            f"cannot analyse to degree {D}"
        )
    opts = preset.options
    assertions = opts.get("assertions", {})
    expect_regular = assertions.get("as_regular_fixed_ring", True)
    checks: list[Check] = []
    doc: dict = {
        "format": REPORT_FORMAT,
        "name": preset.name,
        "max_degree": D,
        "conductor": preset.conductor,
    }

    def skip_rest(reason: str) -> AnalysisResult:
        for section in SECTIONS:
            doc.setdefault(section, {"skipped": reason})
        doc["checks"] = [c.doc() for c in checks]
        return AnalysisResult(doc, checks, exit_code_of(checks))

    def hypothesis(name: str, ok: bool, detail: str) -> None:
        if ok:
            checks.append(Check(name, "hypothesis", "pass", detail))
        elif not expect_regular:
            checks.append(Check(
                name, "hypothesis", "skip",
                f"declared non-regular; {detail}"))
        else:
            checks.append(Check(name, "hypothesis", "fail", detail))

    alg.build(D)

    # -- verification --------------------------------------------------
    hopf_witnesses = hopf.verify()
    checks.append(Check("hopf-axioms", "verification",
                        "fail" if hopf_witnesses else "pass",
                        "; ".join(hopf_witnesses[:4])))
    integral = None
    if not hopf_witnesses:
        action_witnesses = action.verify()
        checks.append(Check("module-algebra", "verification",
                            "fail" if action_witnesses else "pass",
                            "; ".join(action_witnesses[:4])))
        try:
            integral = hopf.integral()
        except ValueError as e:
            checks.append(Check("integral-exists", "verification", "fail", str(e)))
    doc["hopf"] = {
        "dimension": hopf.dim,
        "witnesses": hopf_witnesses,
        "integral": None if integral is None else _vec_text(integral, hopf.labels),
        "characters": [ch.label for ch in chars.chars],
    }
    declared_integral = opts.get("integral")
    if declared_integral is not None and integral is not None:
        checks.append(Check(
            "integral-matches-declared", "verification",
            "pass" if declared_integral == integral else "fail",
            "" if declared_integral == integral
            else "the declared integral differs from the computed one"))
    if any(c.status == "fail" for c in checks):
        return skip_rest("verification failed")

    # -- components and fixed ring ---------------------------------------
    comp = component_report(action, chars, D)
    projectors = central_idempotents(hopf, chars)
    mult_failures = check_component_multiplicativity(action, chars, comp.slices,
                                                     D, projectors)
    checks.append(Check("component-multiplicativity", "verification",
                        "fail" if mult_failures else "pass",
                        "; ".join(mult_failures[:4])))
    if mult_failures:
        return skip_rest("the eigencomponents do not form a grading")
    fixed = fixed_ring(action, chars, comp.slices, D)
    labels = [ch.label for ch in chars.chars]
    doc["hilbert"] = {"algebra": alg.hilbert(D), "fixed": fixed.dims}
    doc["components"] = {
        "labels": labels,
        "dims": {labels[i]: [s.dim for s in comp.slices[i]]
                 for i in range(len(labels))},
        "generators": {labels[i]: elem_doc(alg, comp.f[i])
                       for i in range(len(labels))},
        "generator_notes": {labels[i]: comp.f_reasons[i]
                            for i in range(len(labels)) if comp.f_reasons[i]},
        "free": {labels[i]: comp.freeness[i] for i in range(len(labels))},
    }
    doc["fixed_ring"] = {
        "dims": fixed.dims,
        "generator_degrees": fixed.gen_degrees,
        "generators": [{"name": f"t{i + 1}", **elem_doc(alg, g)}
                       for i, g in enumerate(fixed.gens)],
        "polynomial": fixed.polynomial,
        "commutative": fixed.commutative,
    }
    hypothesis("fixed-ring-polynomial", fixed.polynomial,
               f"generator degrees {fixed.gen_degrees}")
    free_ok = all(x is True for x in comp.freeness)
    hypothesis("components-free", free_ok, "; ".join(comp.freeness_failures[:4]))

    # -- xi and covariant --------------------------------------------------
    xi = series_quotient(alg.hilbert(D), fixed.dims, D)
    xi_poly, xi_top = series_is_polynomial(xi)
    doc["xi"] = {"coefficients": _series_doc(xi), "polynomial": xi_poly,
                 "top_degree": xi_top if xi_poly else None}
    hypothesis("xi-polynomial", xi_poly, "hilbert(A)/hilbert(R)")
    cov = covariant_data(alg, fixed, D)
    doc["covariant"] = {
        "dims": cov.algebra_dims,
        "left_dims": cov.left_dims,
        "right_dims": cov.right_dims,
        "tepid": cov.tepid,
        "frobenius": cov.frobenius,
        "frobenius_reason": cov.frobenius_reason,
    }

    # -- homological determinant -------------------------------------------
    supplied = None
    if opts.get("hdet") is not None:
        supplied = labels.index(opts["hdet"])
    try:
        hdet = homological_determinant(action, chars, comp, fixed, D,
                                       supplied=supplied)
    except ValueError as e:
        checks.append(Check("hdet-routes-agree", "theorem", "fail", str(e)))
        doc["hdet"] = {"skipped": str(e)}
        return skip_rest("no homological determinant")
    routes = {name: labels[i] for name, i in hdet.routes.items()}
    checks.append(Check("hdet-routes-agree", "theorem", "pass",
                        ", ".join(f"{k}={v}" for k, v in sorted(routes.items()))))
    inv_index = chars.group.inverse[hdet.char_index]
    doc["hdet"] = {
        "label": labels[hdet.char_index],
        "inverse": labels[inv_index],
        "routes": routes,
        "declared": opts.get("hdet"),
        "koszul_top": hdet.koszul_top,
        "notes": hdet.notes,
    }

    # -- jacobian, arrangement, discriminant -------------------------------
    model = FixedPolyModel(alg, fixed) if fixed.polynomial else None
    try:
        jac = jacobian_data(alg, chars, comp, fixed, hdet.char_index)
    except DegreeOverflow as e:
        checks.append(Check("jacobian-defined", "hypothesis", "skip", str(e)))
        doc["jacobian"] = {"skipped": str(e)}
        return skip_rest(f"raise the degree bound: {e}")
    except ValueError as e:
        hypothesis("jacobian-defined", False, str(e))
        doc["jacobian"] = {"skipped": str(e)}
        return skip_rest("no jacobian")
    doc["jacobian"] = elem_doc(alg, jac.j)
    doc["arrangement"] = elem_doc(alg, jac.a)
    doc["discriminant"] = {
        "left": elem_doc(alg, jac.delta_left),
        "right": elem_doc(alg, jac.delta_right),
        "proportional": jac.deltas_proportional,
        "in_fixed_ring": jac.delta_in_fixed_ring,
        "r_generators": tpoly_doc(model.to_poly(jac.delta_left), len(fixed.gens))
        if model is not None else None,
    }
    checks.append(Check("jacobian-eq-arrangement", "observation",
                        "pass" if proportional(jac.j, jac.a) else "fail",
                        "j and a span the same line" if proportional(jac.j, jac.a)
                        else "j and a are not proportional"))
    checks.append(Check("deltas-proportional", "theorem",
                        "pass" if jac.deltas_proportional else "fail",
                        "a*j proportional to j*a"))
    checks.append(Check("discriminant-in-fixed-ring", "theorem",
                        "pass" if jac.delta_in_fixed_ring else "fail", ""))
    checks.append(Check("arrangement-divides-jacobian", "theorem",
                        "pass" if jac.a_divides_j_left and jac.a_divides_j_right
                        else "fail",
                        f"left={jac.a_divides_j_left} right={jac.a_divides_j_right}"))

    # -- divisors -----------------------------------------------------------
    extra = tuple(alg.element(t, 1)
                  for t in opts.get("divisor_candidates", ()))
    mode = "certificate" if alg.ngens == 2 and alg.dim(1) == 2 else "candidates"
    doc["divisors"] = {}
    two_sided_ok = True
    for key, target in (("jacobian", jac.j), ("arrangement", jac.a)):
        sides = {}
        for side in ("left", "right"):
            sides[side] = divisor_report(alg, target, side, mode,
                                         preset.conductor, extra)
        left_lines = [elem_doc(alg, e)["poly"] for e in sides["left"].lines]
        right_lines = [elem_doc(alg, e)["poly"] for e in sides["right"].lines]
        both = sorted(set(left_lines) & set(right_lines))
        doc["divisors"][key] = {
            "left": _divisor_side_doc(alg, sides["left"]),
            "right": _divisor_side_doc(alg, sides["right"]),
            "two_sided": both,
        }
        two_sided_ok = two_sided_ok and set(both) <= set(left_lines) \
            and set(both) <= set(right_lines)
    checks.append(Check("divisors-two-sided-inside-one-sided", "theorem",
                        "pass" if two_sided_ok else "fail", ""))

    # -- radical and dis-radical --------------------------------------------
    if action.kind == "dual_group":
        slices = dual_group_shortcut(alg, comp.slices, D)
        method = "component-intersection"
        quotient_dims = [alg.dim(d) - slices[d].dim for d in range(D + 1)]
    else:
        rad = radical_slices(action, D, projectors, comp.slices)
        slices = rad.slices
        method = "smash-pertinency"
        quotient_dims = rad.quotient_dims
    pr = principal_radical(alg, slices, D)
    declared = opts.get("idempotents")
    rife = rife_action_check(action, chars, projectors if declared is None else declared,
                             jac.j, slices, D)
    doc["radical"] = {
        "method": method,
        "dims": [s.dim for s in slices],
        "quotient_dims": quotient_dims,
        "principal": pr.reason == "",
        "generator": elem_doc(alg, pr.generator),
        "normal": pr.normal,
        "note": pr.reason,
        "hopf_rife": rife.hopf_rife,
        "jacobian_normal": rife.j_normal,
        "equals_jacobian_ideal": rife.radical_is_jacobian_ideal,
        "action_rife": rife.action_rife,
        "inside_jacobian_ideal": rife.radical_inside_left_ideal,
    }
    checks.append(Check("radical-inside-jacobian-ideal", "theorem",
                        "pass" if rife.radical_inside_left_ideal else "fail", ""))
    checks.append(Check("radical-eq-jacobian-ideal", "observation",
                        "pass" if rife.radical_is_jacobian_ideal else "fail",
                        "the action is rife" if rife.action_rife
                        else "strict containment or rife test failed"))
    dis = dis_radical(alg, slices, fixed.slices, D)
    doc["dis_radical"] = {
        "dims": dis.dims,
        "first_degree": dis.first_degree,
        "generator": elem_doc(alg, dis.generator),
        "principal": dis.principal,
    }

    # -- structural identities ------------------------------------------
    coc = cocycle_table(alg, chars, comp, fixed, D)
    checks.append(Check(
        "cocycles-normal", "theorem",
        ("pass" if coc.normal else "fail") if coc.complete else "skip",
        "; ".join(coc.failures[:4]) if coc.failures
        else ("" if coc.complete else "table incomplete at this bound")))
    frob = frobenius_pairing(alg, chars, comp, hdet.char_index)
    frob_status = {"yes": "pass", "no": "fail", "undetermined": "skip"}
    checks.append(Check("frobenius-nondegenerate", "theorem",
                        frob_status[frob.verdict],
                        "; ".join(frob.failures[:4])))
    checks.append(Check(
        "component-factorization-identity", "theorem",
        "skip" if frob.verdict == "undetermined"
        else ("pass" if frob.identity_holds else "fail"),
        "missing component generators" if frob.verdict == "undetermined" else ""))
    stein = steinberg_factorization(alg, chars, comp, jac.j, hdet.char_index)
    if stein.verdict == "yes":
        stein_status = "pass"
    elif stein.verdict == "no" and action.kind == "dual_group":
        stein_status = "fail"
    else:
        stein_status = "skip"
    checks.append(Check("steinberg-factorization", "theorem", stein_status,
                        " ".join(stein.labels) if stein.verdict == "yes"
                        else stein.reason))
    trace = None
    if model is not None:
        trace = trace_discriminant(action, chars, comp, fixed, coc,
                                   jac.delta_left, D)
        doc["discriminant"]["trace"] = {
            "applicable": trace.applicable,
            "notes": trace.precondition_notes,
            "matrix_determinant": tpoly_doc(trace.discriminant, len(fixed.gens)),
            "product_of_pair_products": trace.is_product_of_pair_products,
            "delta_divides": trace.delta_divides,
            "divides_delta_power": trace.divides_delta_power,
            "verdict": trace.verdict,
        }
        checks.append(Check("trace-discriminant-chain", "observation",
                            "pass" if trace.verdict == "radical-equal"
                            else "skip", trace.verdict))
    naka_images = opts.get("nakayama")
    if naka_images is not None:
        naka = nakayama_check(action, chars, fixed, hdet.char_index, jac.j,
                              jac.a, naka_images, D, hdet.koszul_top)
        doc["nakayama"] = {
            "automorphism": naka.is_automorphism,
            "twisted_action_identity": naka.twisted_action_identity,
            "fixes_fixed_ring": naka.fixes_fixed_ring,
            "scales_jacobian": naka.scales_jacobian,
            "scales_arrangement": naka.scales_arrangement,
            "induced_is_identity": naka.induced_is_identity,
            "index_additive": naka.index_additive,
            "failures": naka.failures,
        }
        naka_ok = (naka.is_automorphism and naka.twisted_action_identity
                   and naka.fixes_fixed_ring and naka.scales_jacobian
                   and naka.induced_is_identity
                   and naka.index_additive in (True, None))
        checks.append(Check("nakayama-twist", "theorem",
                            "pass" if naka_ok else "fail",
                            "; ".join(naka.failures[:4])))
    iso = isotypic_series(action, chars, comp, fixed, D, idempotents=declared)
    doc["isotypic"] = {
        "idempotents_match_components": iso.idempotent_images_match_components,
        "grouplike_dims": iso.grouplike_dims,
        "complement_dims": iso.complement_dims,
        "grouplike_rank": iso.grouplike_rank,
        "complement_rank": iso.complement_rank,
    }
    checks.append(Check("isotypic-idempotents-match", "theorem",
                        "pass" if iso.idempotent_images_match_components
                        else "fail", ""))
    transfer = jacobian_transfer(chars, comp, fixed, jac.j, D)
    doc["transfer"] = {
        # the components grade A, certified above, so their sum is closed
        "closed_under_product": not mult_failures,
        "xi": _series_doc(transfer.xi_prime),
        "jacobian": elem_doc(alg, transfer.j_prime),
        "proportional_to_jacobian": transfer.jacobians_proportional,
        "note": transfer.reason,
    }
    if transfer.jacobians_proportional is None:
        checks.append(Check("jacobian-transfer", "theorem", "skip",
                            transfer.reason))
    else:
        checks.append(Check("jacobian-transfer", "theorem",
                            "pass" if transfer.jacobians_proportional
                            else "fail", transfer.reason))

    doc["checks"] = [c.doc() for c in checks]
    return AnalysisResult(doc, checks, exit_code_of(checks))


# ---------------------------------------------------------------------------
# serialization


def report_json(doc: dict) -> str:
    """Byte-stable machine form."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _text_value(value, indent: str) -> list[str]:
    if isinstance(value, dict):
        lines = []
        for k in value:
            sub = _text_value(value[k], indent + "  ")
            if len(sub) == 1:
                lines.append(f"{indent}{k}: {sub[0].strip()}")
            else:
                lines.append(f"{indent}{k}:")
                lines.extend(sub)
        return lines or [f"{indent}(empty)"]
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [f"{indent}[" + ", ".join(str(x) for x in value) + "]"]
        lines = []
        for x in value:
            sub = _text_value(x, indent + "  ")
            lines.append(f"{indent}-")
            lines.extend(sub)
        return lines
    return [f"{indent}{value}"]


def report_text(doc: dict) -> str:
    """Human-readable form: sections in a fixed order, one check per line."""
    lines = [f"{doc.get('name', '?')} (to degree {doc.get('max_degree', '?')})"]
    order = ["hopf", "hilbert", "components", "fixed_ring", "hdet",
             "jacobian", "arrangement", "discriminant", "xi", "covariant",
             "radical", "dis_radical", "divisors", "nakayama", "isotypic",
             "transfer"]
    for section in order:
        if section not in doc:
            continue
        lines.append("")
        lines.append(f"[{section}]")
        lines.extend(_text_value(doc[section], "  "))
    lines.append("")
    lines.append("[checks]")
    for c in doc.get("checks", []):
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"  {c['name']}: {c['status']}{detail}")
    return "\n".join(lines) + "\n"
