"""Regenerate the shipped presentation files and golden fixtures.

Run from the repository root (after an editable install) whenever the
report format or an example changes::

    python3 tools/regen_fixtures.py

For every catalogue entry with fixed parameters this writes
``src/ncreflect/presets/data/<stem>.spec`` and ``<stem>.fixture.json``,
checks that the presentation file realises back to the catalogue bundle,
and refuses to write a fixture whose tagged expected values disagree with
the freshly computed report.  It then writes the SHA-256 of each of
their reports at degree bound 24 to ``tests/report_hashes_d24.json``:
past the fixture bound, where the split of each A_d into character
components and their complement differs from degree 12.  A tier-1 test
checks the reports against them.  Last it writes the SHA-256 of the
reports of every shipped preset at degree bound 36 to
``tests/report_hashes_d36.json``.  The CI step "Every shipped preset at
degrees 24 and 36" checks the reports of ``ncreflect analyze`` against
both files.

Every expected value carries a provenance tag:

    paper    stated in the accompanying mathematical text
    derived  computed by an independent oracle and frozen in the tests
    trivial  immediate from the definitions

The tables below are maintained by hand; the script never invents one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ncreflect import presentation
from ncreflect.analysis import analyze, report_json
from ncreflect.cli import _pointer
from ncreflect.presets import catalog

DEGREE = 12
TESTS = Path(__file__).resolve().parents[1] / "tests"
HASH_DEGREE = 24
DEEP_DEGREE = 36

# preferred source spelling of the relations (parse-equal to the
# catalogue's own; the rendered canonical form is harder to read)
RELATIONS = {
    "trivial": ["y*x - x*y"],
    "e22": ["z*x + x*z", "y*x - z*y", "y*z - x*y"],
    "e23": ["d*u^2 - u^2*d", "d^2*u - u*d^2"],
    "e42": ["v*u - i*u*v"],
    "cyclic-z3-2-3": ["y*x - z3*x*y"],
    "mystic-1-2": ["y*x + x*y"],
    "mystic-2-4": ["y*x + x*y"],
}

EXPECTED: dict[str, list[tuple[str, object, str]]] = {
    "trivial": [
        ("/hdet/label", "triv", "trivial"),
        ("/jacobian/degree", 0, "paper"),
        ("/jacobian/poly", "1", "paper"),
        ("/arrangement/poly", "1", "paper"),
        ("/discriminant/left/poly", "1", "paper"),
        ("/xi/coefficients", [1] + [0] * 12, "trivial"),
        ("/covariant/dims", [1] + [0] * 12, "trivial"),
        ("/hilbert/algebra", list(range(1, 14)), "derived"),
        ("/hilbert/fixed", list(range(1, 14)), "derived"),
        ("/fixed_ring/generator_degrees", [1, 1], "trivial"),
        ("/fixed_ring/polynomial", True, "trivial"),
        ("/radical/equals_jacobian_ideal", True, "derived"),
    ],
    "e22": [
        ("/fixed_ring/generator_degrees", [2, 2, 2], "paper"),
        ("/fixed_ring/polynomial", True, "paper"),
        ("/hdet/label", "rp3", "paper"),
        ("/jacobian/degree", 3, "paper"),
        ("/jacobian/poly", "x*y*x", "paper"),
        ("/arrangement/poly", "x*y*x", "paper"),
        ("/discriminant/left/poly", "x^2*y*x^2*y", "paper"),
        ("/discriminant/r_generators/poly", "t1*t2*t3", "paper"),
        ("/discriminant/trace/matrix_determinant/poly", "t1^4*t2^4*t3^4",
         "paper"),
        ("/discriminant/trace/verdict", "radical-equal", "paper"),
        ("/divisors/jacobian/left/lines", ["x", "y", "z"], "paper"),
        ("/divisors/jacobian/right/lines", ["x", "y", "z"], "paper"),
        ("/covariant/tepid", True, "paper"),
        ("/covariant/dims", [1, 3, 3, 1] + [0] * 9, "derived"),
        ("/xi/coefficients", [1, 3, 3, 1] + [0] * 9, "derived"),
        ("/radical/generator/poly", "x*y*x", "paper"),
        ("/radical/dims",
         [0, 0, 0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55], "derived"),
        ("/radical/equals_jacobian_ideal", True, "paper"),
        ("/radical/action_rife", True, "paper"),
        ("/hilbert/algebra",
         [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78, 91], "derived"),
        ("/hilbert/fixed",
         [1, 0, 3, 0, 6, 0, 10, 0, 15, 0, 21, 0, 28], "derived"),
    ],
    "e23": [
        ("/hdet/label", "p2", "paper"),
        ("/jacobian/poly", "u^2", "derived"),
        ("/arrangement/poly", "u^2", "derived"),
        ("/discriminant/left/poly", "u^4", "derived"),
        ("/fixed_ring/polynomial", False, "paper"),
        ("/fixed_ring/generator_degrees", [2, 4, 4, 4], "derived"),
        ("/xi/coefficients",
         [1, 2, 3, 4, 2, 0, -2, -4, -2, 0, 2, 4, 2], "derived"),
        ("/xi/polynomial", False, "derived"),
        ("/radical/dims",
         [0, 0, 0, 0, 0, 5, 8, 11, 15, 19, 24, 29, 35], "derived"),
        ("/radical/equals_jacobian_ideal", False, "paper"),
        ("/divisors/jacobian/left/lines", ["u"], "derived"),
        ("/hilbert/algebra",
         [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49], "derived"),
        ("/hilbert/fixed",
         [1, 0, 1, 0, 4, 0, 4, 0, 9, 0, 9, 0, 16], "derived"),
    ],
    "e42": [
        ("/hdet/label", "ggp", "paper"),
        ("/hdet/inverse", "ggp", "paper"),
        ("/components/generators/g/poly", "u^2 - v^2", "paper"),
        ("/components/generators/gp/poly", "u*v", "paper"),
        ("/components/generators/ggp/poly", "u^3*v + u*v^3", "paper"),
        ("/jacobian/degree", 4, "paper"),
        ("/jacobian/poly", "u^3*v + u*v^3", "paper"),
        ("/arrangement/poly", "u^3*v + u*v^3", "paper"),
        ("/discriminant/left/poly",
         "u^6*v^2 - 2*u^4*v^4 + u^2*v^6", "paper"),
        ("/xi/coefficients", [1, 2, 2, 2, 1] + [0] * 8, "paper"),
        ("/covariant/dims", [1, 2, 2] + [0] * 10, "paper"),
        ("/covariant/tepid", False, "paper"),
        ("/isotypic/grouplike_dims",
         [1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 11, 0, 13], "paper"),
        ("/fixed_ring/generator_degrees", [2, 4], "paper"),
        ("/radical/dims",
         [0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7], "paper"),
        ("/radical/generator/poly", "u^5*v - u*v^5", "paper"),
        ("/dis_radical/first_degree", 10, "derived"),
        ("/dis_radical/principal", True, "paper"),
        ("/dis_radical/generator/poly",
         "u^8*v^2 - u^6*v^4 - u^4*v^6 + u^2*v^8", "paper"),
        ("/divisors/jacobian/left/lines",
         ["u", "u - z8^3*v", "u + z8^3*v", "v"], "paper"),
        ("/divisors/jacobian/right/lines",
         ["u", "u - z8*v", "u + z8*v", "v"], "paper"),
        ("/nakayama/automorphism", True, "derived"),
        ("/nakayama/induced_is_identity", True, "paper"),
        ("/nakayama/index_additive", True, "paper"),
        ("/nakayama/scales_jacobian", True, "paper"),
        ("/transfer/proportional_to_jacobian", True, "paper"),
        ("/hilbert/algebra", list(range(1, 14)), "derived"),
        ("/hilbert/fixed",
         [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 4], "derived"),
    ],
    "cyclic-z3-2-3": [
        ("/jacobian/poly", "x*y^2", "paper"),
        ("/arrangement/poly", "x*y", "paper"),
        ("/divisors/jacobian/left/lines", ["x", "y"], "paper"),
        ("/divisors/jacobian/right/lines", ["x", "y"], "paper"),
        ("/divisors/arrangement/left/lines", ["x", "y"], "paper"),
        ("/divisors/arrangement/two_sided", ["x", "y"], "paper"),
        ("/hilbert/algebra", list(range(1, 14)), "derived"),
        ("/hilbert/fixed",
         [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3], "derived"),
    ],
    "mystic-1-2": [
        ("/jacobian/poly", "x^2 - y^2", "paper"),
        ("/arrangement/poly", "x^2 - y^2", "paper"),
        ("/divisors/arrangement/left/lines",
         ["x - z4*y", "x + z4*y"], "paper"),
        ("/divisors/arrangement/two_sided",
         ["x + z4*y", "x - z4*y"], "paper"),
        ("/hilbert/algebra", list(range(1, 14)), "derived"),
    ],
    "mystic-2-4": [
        ("/jacobian/degree", 6, "paper"),
        ("/jacobian/poly", "x^5*y - x*y^5", "paper"),
        ("/arrangement/poly", "x^5*y - x*y^5", "paper"),
        ("/divisors/arrangement/left/lines",
         ["x", "x - y", "x + y", "x - z4*y", "x + z4*y", "y"], "paper"),
        ("/divisors/arrangement/two_sided",
         ["x", "x + y", "x + z4*y", "x - y", "x - z4*y", "y"], "paper"),
        ("/hilbert/algebra", list(range(1, 14)), "derived"),
    ],
}


def main() -> None:
    catalog.DATA_DIR.mkdir(exist_ok=True)
    for name in catalog.shipped():
        spec_path = catalog.presentation_path(name)
        stem = spec_path.stem
        preset = catalog.build(name, DEGREE)
        doc = presentation.render(preset)
        doc["algebra"]["relations"] = RELATIONS[stem]
        text = presentation.dumps(doc)

        back = presentation.realize(presentation.loads(text),
                                    max_degree=DEGREE)
        if presentation.render(back) != presentation.render(preset):
            raise SystemExit(
                f"{stem}: file does not realise back to the catalogue bundle")
        spec_path.write_text(text)

        result = analyze(preset, DEGREE)
        if result.exit_code != 0:
            raise SystemExit(f"{stem}: analysis exit {result.exit_code}")
        report = json.loads(report_json(result.document))
        expected = []
        for path, value, tag in EXPECTED[stem]:
            got, found = _pointer(report, path)
            if not found:
                raise SystemExit(f"{stem}: nothing at {path}")
            if got != value:
                raise SystemExit(
                    f"{stem}: {path} is {got!r}, table says {value!r}")
            expected.append({"path": path, "value": value, "tag": tag})
        fixture = {
            "format": catalog.FIXTURE_FORMAT,
            "name": name,
            "max_degree": DEGREE,
            "report": report,
            "expected": expected,
        }
        catalog.fixture_path(name).write_text(
            json.dumps(fixture, indent=2) + "\n")
        print(f"{stem}: wrote {spec_path.name} and fixture "
              f"({len(expected)} expected values)")

    write_hashes(catalog.shipped(), HASH_DEGREE)
    write_hashes(catalog.shipped(), DEEP_DEGREE)


def write_hashes(names, degree: int) -> None:
    """Record the SHA-256 of each preset's report at the degree bound in
    ``tests/report_hashes_d<degree>.json``."""
    hashes = {}
    for name in names:
        result = analyze(catalog.build(name, degree), degree)
        if result.exit_code != 0:
            raise SystemExit(f"{name}: analysis exit {result.exit_code} "
                             f"at degree {degree}")
        hashes[name] = report_sha256(result.document)
    path = TESTS / f"report_hashes_d{degree}.json"
    path.write_text(json.dumps({"max_degree": degree, "sha256": hashes}, indent=2) + "\n")
    print(f"wrote {path.name} ({len(hashes)} reports at degree {degree})")


def report_sha256(document) -> str:
    """SHA-256 of the byte-stable report text, as UTF-8."""
    return hashlib.sha256(report_json(document).encode()).hexdigest()


if __name__ == "__main__":
    main()
