"""Presentation documents: the ``.spec`` input format.

A presentation file is a JSON document giving the graded algebra, the
acting Hopf algebra, and the analysis options.  Every scalar, relation,
and generator image is an expression string in the shared grammar, so
the same parser serves files and report output.  The formal schema lives
in ``docs/input-format.md``; the shape is::

    {"format": "ncreflect-spec/1",
     "name": "...",                          (optional)
     "field": {"conductor": N},
     "algebra": {"generators": [{"name": ..., "degree": ...}, ...],
                 "relations": ["v*u - i*u*v", ...]},
     "action": {"kind": "group" | "dual_group" | "table", ...},
     "options": {...}}                       (optional)

The three action kinds mirror the ways an action is given in practice: a
group acting through matrices on the generators (extended over the
Cayley graph from any generating set), a grading by a group (the dual
group algebra acting diagonally), or a full table of structure constants
for a Hopf algebra that is neither.

Malformed JSON raises :class:`SpecSyntaxError` with the decoder's
line/column; schema violations raise :class:`SpecSchemaError` with a
JSON-pointer path to the offending value.  Expression errors keep their
character offset inside the schema message.  ``realize`` turns a parsed
document into the same bundle shape the built-in catalogue produces;
errors raised there (a multiplication table that is not a group, say)
concern the mathematics rather than the document and propagate as plain
``ValueError`` for the caller to classify.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import lcm
from typing import NoReturn, Sequence

from .exprs import ExprError, p_degree, parse, parse_scalar, show, show_scalar
from .hopf import (
    Character,
    CharacterGroup,
    Group,
    HopfAction,
    HopfAlgebra,
    dual_group_algebra,
    dual_group_characters,
    group_algebra,
    group_linear_characters,
)
from .linalg import Matrix, Vec
from .ncalg import GradedAlgebra, RelationAboveBound
from .presets.catalog import Preset
from .presets.groups import CLOSURE_CAP
from .scalars import MAX_CONDUCTOR, ZERO

SPEC_FORMAT = "ncreflect-spec/1"

# names the expression grammar claims for itself (i and the roots z<n>)
_RESERVED = re.compile(r"^(i|z[0-9]+)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

# json.loads recurses once per array or object, so deeper nesting is
# refused at its bracket before Python's recursion limit is hit
MAX_JSON_DEPTH = 100
_JSON_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"|[\[\]{}]')


class SpecSyntaxError(ValueError):
    """The document is not well-formed text (position from the decoder)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SpecSchemaError(ValueError):
    """A well-formed document that violates the schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# schema walking


def _escape(part) -> str:
    return str(part).replace("~", "~0").replace("/", "~1")


class _Node:
    """A raw JSON value together with its JSON-pointer path."""

    __slots__ = ("value", "path", "conductor")

    def __init__(self, value, path: str = "", conductor: list[int] | None = None):
        self.value = value
        self.path = path
        # one cell shared by the whole document: the lcm of the conductors
        # of every scalar parsed so far, which later arithmetic may reach
        self.conductor = [1] if conductor is None else conductor

    def fail(self, message: str) -> NoReturn:
        raise SpecSchemaError(self.path, message)

    def child(self, key) -> "_Node":
        return _Node(self.value[key], f"{self.path}/{_escape(key)}", self.conductor)

    def _join(self, scalars) -> None:
        n = self.conductor[0]
        for c in scalars:
            n = lcm(n, c.n)
        if n > MAX_CONDUCTOR:
            self.fail(f"the scalars of the document need conductor {n}, "
                      f"above the maximum {MAX_CONDUCTOR}")
        self.conductor[0] = n

    def keys(self, required: Sequence[str], optional: Sequence[str] = ()) -> dict[str, "_Node"]:
        if not isinstance(self.value, dict):
            self.fail("expected an object")
        unknown = sorted(set(self.value) - set(required) - set(optional))
        if unknown:
            self.fail("unknown keys: " + ", ".join(unknown))
        missing = sorted(set(required) - set(self.value))
        if missing:
            self.fail("missing keys: " + ", ".join(missing))
        return {k: self.child(k) for k in self.value}

    def entries(self) -> list[tuple[str, "_Node"]]:
        if not isinstance(self.value, dict):
            self.fail("expected an object")
        return [(k, self.child(k)) for k in self.value]

    def as_list(self, length: int | None = None) -> list["_Node"]:
        if not isinstance(self.value, list):
            self.fail("expected an array")
        if length is not None and len(self.value) != length:
            self.fail(f"expected {length} entries, found {len(self.value)}")
        return [self.child(i) for i in range(len(self.value))]

    def as_str(self) -> str:
        if not isinstance(self.value, str):
            self.fail("expected a string")
        return self.value

    def as_int(self, minimum: int | None = None) -> int:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            self.fail("expected an integer")
        if minimum is not None and self.value < minimum:
            self.fail(f"expected an integer >= {minimum}")
        return self.value

    def as_bool(self) -> bool:
        if not isinstance(self.value, bool):
            self.fail("expected true or false")
        return self.value

    def expr(self, gens: Sequence[str]):
        text = self.as_str()
        try:
            poly = parse(text, gens)
        except ExprError as e:
            self.fail(str(e))
        self._join(poly.values())
        return poly

    def scalar(self):
        text = self.as_str()
        try:
            c = parse_scalar(text)
        except ExprError as e:
            self.fail(str(e))
        self._join([c])
        return c


# ---------------------------------------------------------------------------
# parsed document


@dataclass
class GroupData:
    labels: list[str]
    table: list[list[int]]


@dataclass
class GroupActionData:
    kind: str  # "group"
    group: GroupData
    matrices: dict[str, list[str]]  # element label -> image of each generator


@dataclass
class DualGroupActionData:
    kind: str  # "dual_group"
    group: GroupData
    generator_degrees: list[str]  # group label per algebra generator


@dataclass
class TableActionData:
    kind: str  # "table"
    basis: list[str]
    unit: dict[str, str]
    mult: list[list[dict[str, str]]]
    comult: list[list[tuple[str, str, str]]]
    counit: list[str]
    antipode: list[dict[str, str]]
    characters: list[tuple[str, list[str]]]
    matrices: dict[str, list[str]]  # basis label -> image of each generator
    integral: dict[str, str] | None
    idempotents: list[dict[str, str]] | None


@dataclass
class InputSpec:
    name: str
    description: str
    conductor: int
    generators: list[tuple[str, int]]
    relations: list[str]
    action: GroupActionData | DualGroupActionData | TableActionData
    max_degree: int | None
    hdet: str | None
    nakayama: list[str] | None
    divisor_candidates: list[str]
    assertions: dict[str, bool]

    @property
    def gen_names(self) -> list[str]:
        return [n for n, _ in self.generators]

    @property
    def weights(self) -> list[int]:
        return [w for _, w in self.generators]


def load(path) -> InputSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _check_nesting(text: str) -> None:
    depth = 0
    for m in _JSON_STRING_OR_BRACKET.finditer(text):
        tok = m.group()
        if tok in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                off = m.start()
                raise SpecSyntaxError(
                    f"arrays and objects nested deeper than {MAX_JSON_DEPTH} at offset {off}",
                    text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))
        elif tok in ("]", "}"):
            depth -= 1


def loads(text: str) -> InputSpec:
    _check_nesting(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecSyntaxError(e.msg, e.lineno, e.colno) from None
    return parse_document(doc)


def parse_document(doc) -> InputSpec:
    top = _Node(doc).keys(
        ["format", "field", "algebra", "action"], ["name", "description", "options"]
    )
    fmt = top["format"].as_str()
    if fmt != SPEC_FORMAT:
        top["format"].fail(f"unsupported format {fmt!r} (this reader takes {SPEC_FORMAT!r})")
    conductor_node = top["field"].keys(["conductor"])["conductor"]
    conductor = conductor_node.as_int(1)
    if conductor > MAX_CONDUCTOR:
        conductor_node.fail(f"conductor {conductor} exceeds the maximum {MAX_CONDUCTOR}")
    generators, relations = _parse_algebra(top["algebra"])
    gen_names = [n for n, _ in generators]
    weights = [w for _, w in generators]
    action = _parse_action(top["action"], gen_names, weights)
    name = top["name"].as_str() if "name" in top else "input"
    description = top["description"].as_str() if "description" in top else ""
    opts = _parse_options(top.get("options"), gen_names, weights)
    max_degree, hdet, nakayama, candidates, assertions = opts
    if hdet is not None and action.kind == "table":
        if hdet not in [label for label, _ in action.characters]:
            top["options"].child("hdet").fail(f"no character is labelled {hdet!r}")
    return InputSpec(
        name, description, conductor, generators, relations, action,
        max_degree, hdet, nakayama, candidates, assertions,
    )


def _parse_algebra(node: _Node) -> tuple[list[tuple[str, int]], list[str]]:
    keys = node.keys(["generators", "relations"])
    generators: list[tuple[str, int]] = []
    for g in keys["generators"].as_list():
        f = g.keys(["name", "degree"])
        gname = f["name"].as_str()
        if not _NAME.match(gname):
            f["name"].fail(f"{gname!r} is not a usable generator name")
        if _RESERVED.match(gname):
            f["name"].fail(f"{gname!r} is reserved by the scalar grammar")
        if gname in [n for n, _ in generators]:
            f["name"].fail(f"duplicate generator {gname!r}")
        generators.append((gname, f["degree"].as_int(1)))
    if not generators:
        keys["generators"].fail("need at least one generator")
    gen_names = [n for n, _ in generators]
    weights = [w for _, w in generators]
    relations = []
    for r in keys["relations"].as_list():
        poly = r.expr(gen_names)
        if poly and p_degree(poly, weights) is None:
            r.fail("relation is not homogeneous for the generator degrees")
        relations.append(r.as_str())
    return generators, relations


def _parse_group(node: _Node) -> GroupData:
    keys = node.keys(["labels", "table"])
    labels = [x.as_str() for x in keys["labels"].as_list()]
    if len(labels) > CLOSURE_CAP:
        keys["labels"].fail(f"{len(labels)} elements, above the maximum "
                            f"Hopf dimension {CLOSURE_CAP}")
    if not labels:
        keys["labels"].fail("need at least one element")
    if len(set(labels)) != len(labels):
        keys["labels"].fail("duplicate element labels")
    n = len(labels)
    table = []
    for row in keys["table"].as_list(n):
        entries = []
        for cell in row.as_list(n):
            k = cell.as_int(0)
            if k >= n:
                cell.fail(f"entry {k} is outside the element range 0..{n - 1}")
            entries.append(k)
        table.append(entries)
    return GroupData(labels, table)


def _parse_images(
    node: _Node, gen_names: Sequence[str], weights: Sequence[int], letters_only: bool
) -> list[str]:
    """One image expression per generator, homogeneous of that generator's
    degree (zero allowed); for matrix actions only single letters may occur."""
    out = []
    for i, img in enumerate(node.as_list(len(gen_names))):
        poly = img.expr(gen_names)
        if poly and p_degree(poly, list(weights)) != weights[i]:
            img.fail(f"the image of {gen_names[i]} must be homogeneous "
                     f"of degree {weights[i]}")
        if letters_only and any(len(w) != 1 for w in poly):
            img.fail("a matrix action sends each generator to a combination "
                     "of generators")
        out.append(img.as_str())
    return out


def _vec_doc(node: _Node, labels: Sequence[str]) -> dict[str, str]:
    out = {}
    for key, cell in node.entries():
        if key not in labels:
            cell.fail(f"unknown basis label {key!r}")
        cell.scalar()
        out[key] = cell.as_str()
    return out


def _parse_action(node: _Node, gen_names: list[str], weights: list[int]):
    head = node.keys(["kind"], ["group", "matrices", "generator_degrees", "basis",
                               "unit", "mult", "comult", "counit", "antipode",
                               "characters", "integral", "idempotents"])
    kind = head["kind"].as_str()
    if kind == "group":
        keys = node.keys(["kind", "group", "matrices"])
        group = _parse_group(keys["group"])
        matrices: dict[str, list[str]] = {}
        for label, images in keys["matrices"].entries():
            if label not in group.labels:
                images.fail(f"{label!r} is not an element of the group")
            matrices[label] = _parse_images(images, gen_names, weights, True)
        if not matrices and len(group.labels) > 1:
            keys["matrices"].fail("need matrices for a generating set")
        return GroupActionData(kind, group, matrices)
    if kind == "dual_group":
        keys = node.keys(["kind", "group", "generator_degrees"])
        group = _parse_group(keys["group"])
        degrees = []
        for cell in keys["generator_degrees"].as_list(len(gen_names)):
            label = cell.as_str()
            if label not in group.labels:
                cell.fail(f"{label!r} is not an element of the group")
            degrees.append(label)
        return DualGroupActionData(kind, group, degrees)
    if kind == "table":
        keys = node.keys(
            ["kind", "basis", "unit", "mult", "comult", "counit", "antipode",
             "characters", "matrices"],
            ["integral", "idempotents"],
        )
        basis = [x.as_str() for x in keys["basis"].as_list()]
        if len(basis) > CLOSURE_CAP:
            keys["basis"].fail(f"{len(basis)} basis elements, above the maximum "
                               f"Hopf dimension {CLOSURE_CAP}")
        if not basis:
            keys["basis"].fail("need at least one basis element")
        if len(set(basis)) != len(basis):
            keys["basis"].fail("duplicate basis labels")
        n = len(basis)
        unit = _vec_doc(keys["unit"], basis)
        mult = [
            [_vec_doc(cell, basis) for cell in row.as_list(n)]
            for row in keys["mult"].as_list(n)
        ]
        comult = []
        for row in keys["comult"].as_list(n):
            terms = []
            for t in row.as_list():
                parts = t.as_list(3)
                j, k = parts[0].as_str(), parts[1].as_str()
                if j not in basis:
                    parts[0].fail(f"unknown basis label {j!r}")
                if k not in basis:
                    parts[1].fail(f"unknown basis label {k!r}")
                parts[2].scalar()
                terms.append((j, k, parts[2].as_str()))
            comult.append(terms)
        counit = []
        for cell in keys["counit"].as_list(n):
            cell.scalar()
            counit.append(cell.as_str())
        antipode = [_vec_doc(v, basis) for v in keys["antipode"].as_list(n)]
        characters = []
        for ch in keys["characters"].as_list():
            f = ch.keys(["label", "values"])
            label = f["label"].as_str()
            if label in [l for l, _ in characters]:
                f["label"].fail(f"duplicate character label {label!r}")
            values = []
            for cell in f["values"].as_list(n):
                cell.scalar()
                values.append(cell.as_str())
            characters.append((label, values))
        if not characters:
            keys["characters"].fail("need at least one character")
        matrices: dict[str, list[str]] = {}
        for label, images in keys["matrices"].entries():
            if label not in basis:
                images.fail(f"unknown basis label {label!r}")
            matrices[label] = _parse_images(images, gen_names, weights, False)
        missing = [b for b in basis if b not in matrices]
        if missing:
            keys["matrices"].fail("missing images for: " + ", ".join(missing))
        integral = _vec_doc(keys["integral"], basis) if "integral" in keys else None
        idempotents = (
            [_vec_doc(v, basis) for v in keys["idempotents"].as_list(len(characters))]
            if "idempotents" in keys else None
        )
        return TableActionData(kind, basis, unit, mult, comult, counit, antipode,
                               characters, matrices, integral, idempotents)
    head["kind"].fail(f"unknown action kind {kind!r} "
                      "(one of group, dual_group, table)")


def _parse_options(node: _Node | None, gen_names: list[str], weights: list[int]):
    max_degree: int | None = None
    hdet: str | None = None
    nakayama: list[str] | None = None
    candidates: list[str] = []
    assertions = {"domain": True, "as_regular_fixed_ring": True}
    if node is None:
        return max_degree, hdet, nakayama, candidates, assertions
    keys = node.keys([], ["max_degree", "hdet", "nakayama", "divisor_candidates",
                          "assertions"])
    if "max_degree" in keys:
        max_degree = keys["max_degree"].as_int(1)
    if "hdet" in keys:
        hdet = keys["hdet"].as_str()
    if "nakayama" in keys:
        nakayama = _parse_images(keys["nakayama"], gen_names, weights, False)
    if "divisor_candidates" in keys:
        for cell in keys["divisor_candidates"].as_list():
            poly = cell.expr(gen_names)
            if not poly or p_degree(poly, weights) != 1:
                cell.fail("divisor candidates must be homogeneous of degree one")
            candidates.append(cell.as_str())
    if "assertions" in keys:
        for key, cell in keys["assertions"].keys(
            [], ["domain", "as_regular_fixed_ring"]
        ).items():
            assertions[key] = cell.as_bool()
    return max_degree, hdet, nakayama, candidates, assertions


# ---------------------------------------------------------------------------
# realization


def _letter_matrix(ngens: int, image_texts: Sequence[str], gen_names: Sequence[str]) -> Matrix:
    rows = [[ZERO] * ngens for _ in range(ngens)]
    for j, text in enumerate(image_texts):
        for word, c in parse(text, gen_names).items():
            rows[word[0]][j] = c
    return Matrix(rows)


def _image_vec(alg: GradedAlgebra, text: str, gen_index: int) -> Vec:
    poly = parse(text, alg.gen_names)
    if not poly:
        return {}
    deg, vec = alg.nf(poly)
    if vec and deg != alg.weights[gen_index]:
        raise ValueError(
            f"the image of {alg.gen_names[gen_index]} has degree {deg}, "
            f"expected {alg.weights[gen_index]}"
        )
    return vec


def _vec_values(doc: dict[str, str], index: dict[str, int]) -> Vec:
    out: Vec = {}
    for label, text in doc.items():
        c = parse_scalar(text)
        if not c.is_zero():
            out[index[label]] = c
    return out


def realize(spec: InputSpec, max_degree: int | None = None) -> Preset:
    """Build the presentation into the same bundle shape the catalogue uses."""
    D = max_degree if max_degree is not None else (spec.max_degree or 12)
    gen_names = spec.gen_names
    rels = [parse(t, gen_names) for t in spec.relations]
    try:
        alg = GradedAlgebra(gen_names, rels, weights=spec.weights, max_degree=D)
    except RelationAboveBound as e:
        raise SpecSchemaError(f"/algebra/relations/{e.index}",
                              f"degree {e.degree} exceeds the degree bound {e.bound}") from None
    data = spec.action
    options: dict = {"hdet": spec.hdet, "nakayama": None}
    if data.kind == "group":
        group = Group(data.group.labels, data.group.table)
        hopf = group_algebra(group)
        assigned = {
            group.labels.index(label): _letter_matrix(alg.ngens, images, gen_names)
            for label, images in data.matrices.items()
        }
        action = HopfAction.from_group_matrices(hopf, alg, group, assigned)
        chars = group_linear_characters(hopf, group)
    elif data.kind == "dual_group":
        group = Group(data.group.labels, data.group.table)
        hopf = dual_group_algebra(group)
        grading = [group.labels.index(label) for label in data.generator_degrees]
        action = HopfAction.from_grading(hopf, alg, group, grading)
        chars = dual_group_characters(hopf, group)
    else:
        index = {label: k for k, label in enumerate(data.basis)}
        hopf = HopfAlgebra(
            data.basis,
            _vec_values(data.unit, index),
            [[_vec_values(cell, index) for cell in row] for row in data.mult],
            [
                [(index[j], index[k], parse_scalar(c)) for j, k, c in row]
                for row in data.comult
            ],
            [parse_scalar(c) for c in data.counit],
            [_vec_values(v, index) for v in data.antipode],
        )
        chars = CharacterGroup(
            hopf,
            [
                Character(hopf, [parse_scalar(v) for v in values], label)
                for label, values in data.characters
            ],
        )
        images = [
            [_image_vec(alg, text, i) for i, text in enumerate(data.matrices[label])]
            for label in data.basis
        ]
        action = HopfAction.from_matrices(hopf, alg, images)
        if data.integral is not None:
            options["integral"] = _vec_values(data.integral, index)
        if data.idempotents is not None:
            options["idempotents"] = [_vec_values(v, index) for v in data.idempotents]
    if spec.hdet is not None and all(ch.label != spec.hdet for ch in chars.chars):
        raise SpecSchemaError("/options/hdet", f"no character is labelled {spec.hdet!r}")
    if spec.nakayama is not None:
        options["nakayama"] = [
            _image_vec(alg, text, i) for i, text in enumerate(spec.nakayama)
        ]
    if spec.divisor_candidates:
        options["divisor_candidates"] = list(spec.divisor_candidates)
    options["assertions"] = dict(spec.assertions)
    return Preset(spec.name, spec.description, alg, hopf, action, chars,
                  spec.conductor, options)


# ---------------------------------------------------------------------------
# rendering (the inverse direction, used to generate the shipped files)


def _vec_text(vec: Vec, labels: Sequence[str]) -> dict[str, str]:
    return {labels[k]: show_scalar(vec[k])[0] for k in sorted(vec)}


def _image_texts(action: HopfAction, h: int) -> list[str]:
    alg = action.alg
    return [
        alg.show_vec(action.gen_images[h][i], alg.weights[i])
        for i in range(alg.ngens)
    ]


def render(preset: Preset) -> dict:
    """A presentation document reproducing the bundle (parse . render is
    the identity up to expression spelling)."""
    alg = preset.algebra
    doc: dict = {"format": SPEC_FORMAT, "name": preset.name}
    if preset.description:
        doc["description"] = preset.description
    doc["field"] = {"conductor": preset.conductor}
    doc["algebra"] = {
        "generators": [
            {"name": n, "degree": w} for n, w in zip(alg.gen_names, alg.weights)
        ],
        "relations": [show(rel, alg.gen_names) for rel in alg.relations],
    }
    action = preset.action
    if action.kind == "group":
        group = action.group
        doc["action"] = {
            "kind": "group",
            "group": {"labels": list(group.labels), "table": [list(r) for r in group.table]},
            "matrices": {
                group.labels[h]: _image_texts(action, h) for h in range(group.order)
            },
        }
    elif action.kind == "dual_group":
        group = action.group
        doc["action"] = {
            "kind": "dual_group",
            "group": {"labels": list(group.labels), "table": [list(r) for r in group.table]},
            "generator_degrees": [group.labels[g] for g in action.grading],
        }
    else:
        hopf = action.hopf
        labels = hopf.labels
        doc["action"] = {
            "kind": "table",
            "basis": list(labels),
            "unit": _vec_text(hopf.unit, labels),
            "mult": [[_vec_text(v, labels) for v in row] for row in hopf.mult],
            "comult": [
                [[labels[j], labels[k], show_scalar(c)[0]] for j, k, c in row]
                for row in hopf.comult
            ],
            "counit": [show_scalar(c)[0] for c in hopf.counit],
            "antipode": [_vec_text(v, labels) for v in hopf.antipode],
            "characters": [
                {"label": ch.label, "values": [show_scalar(v)[0] for v in ch.values]}
                for ch in preset.chars.chars
            ],
            "matrices": {labels[h]: _image_texts(action, h) for h in range(hopf.dim)},
        }
    options: dict = {}
    if preset.options.get("hdet") is not None:
        options["hdet"] = preset.options["hdet"]
    if preset.options.get("nakayama") is not None:
        options["nakayama"] = [
            alg.show_vec(v, alg.weights[i])
            for i, v in enumerate(preset.options["nakayama"])
        ]
    if preset.options.get("divisor_candidates"):
        options["divisor_candidates"] = list(preset.options["divisor_candidates"])
    options["assertions"] = dict(preset.options["assertions"])
    doc["options"] = options
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
