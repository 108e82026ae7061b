"""Presentation files: schema validation, realisation, round-trips."""

from __future__ import annotations

import json

import pytest

from ncreflect import presentation
from ncreflect.hopf import HopfAlgebra
from ncreflect.presentation import (
    SpecSchemaError,
    SpecSyntaxError,
    dumps,
    loads,
    parse_document,
    realize,
    render,
)
from ncreflect.presets import catalog


def minimal() -> dict:
    """Smallest interesting document: swap action on the commutative plane."""
    return {
        "format": "ncreflect-spec/1",
        "field": {"conductor": 4},
        "algebra": {
            "generators": [{"name": "x", "degree": 1},
                           {"name": "y", "degree": 1}],
            "relations": ["y*x - x*y"],
        },
        "action": {
            "kind": "group",
            "group": {"labels": ["e", "s"], "table": [[0, 1], [1, 0]]},
            "matrices": {"s": ["y", "x"]},
        },
    }


# ---------------------------------------------------------------------------
# round-trips


def test_minimal_document_realises():
    spec = parse_document(minimal())
    preset = realize(spec, max_degree=6)
    assert list(preset.algebra.gen_names) == ["x", "y"]
    assert preset.hopf.dim == 2
    assert preset.hopf.verify() == HopfAlgebra.verify(preset.hopf) == []
    assert preset.action.verify() == []


def test_render_parse_round_trip_over_catalogue():
    for name in catalog.shipped():
        original = catalog.build(name, max_degree=8)
        doc = render(original)
        back = realize(loads(dumps(doc)), max_degree=8)
        assert render(back) == doc, name


def test_shipped_files_realise_to_catalogue_bundles():
    for name in catalog.shipped():
        path = catalog.presentation_path(name)
        spec = presentation.load(path)
        assert spec.name == name
        back = realize(spec, max_degree=8)
        assert render(back) == render(catalog.build(name, max_degree=8)), name


def test_shipped_table_file_equals_builtin_bundle():
    # the table-kind file carries the full eight-dimensional Hopf structure
    spec = presentation.load(catalog.presentation_path("e42-kacpalyutkin"))
    assert spec.action.kind == "table"
    preset = realize(spec, max_degree=8)
    built = catalog.build("e42-kacpalyutkin", max_degree=8)
    assert render(preset) == render(built)
    assert preset.conductor == 8
    assert preset.options["hdet"] == "ggp"
    assert preset.options["nakayama"] == built.options["nakayama"]


def test_dumps_loads_identity():
    doc = render(catalog.build("e22-dualD8", max_degree=6))
    assert loads(dumps(doc)) is not None
    assert json.loads(dumps(doc)) == doc


# ---------------------------------------------------------------------------
# syntax errors carry positions, schema errors carry pointer paths


def test_malformed_text_reports_line_and_column():
    with pytest.raises(SpecSyntaxError) as err:
        loads('{"format": "ncreflect-spec/1",\n  "field": }\n')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_malformed_relation_reports_offset_and_path():
    doc = minimal()
    doc["algebra"]["relations"] = ["^2x"]
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path == "/algebra/relations/0"
    assert "at offset 0" in str(err.value)


def test_unknown_keys_rejected():
    doc = minimal()
    doc["extra"] = 1
    with pytest.raises(SpecSchemaError, match="unknown keys: extra"):
        parse_document(doc)
    doc = minimal()
    doc["options"] = {"frobnicate": True}
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path == "/options"


def test_missing_required_key():
    doc = minimal()
    del doc["field"]
    with pytest.raises(SpecSchemaError, match="missing"):
        parse_document(doc)


def test_format_string_checked():
    doc = minimal()
    doc["format"] = "something/9"
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path == "/format"


def test_reserved_and_duplicate_generator_names():
    doc = minimal()
    doc["algebra"]["generators"][0]["name"] = "i"
    with pytest.raises(SpecSchemaError, match="reserved"):
        parse_document(doc)
    doc = minimal()
    doc["algebra"]["generators"][1]["name"] = "x"
    with pytest.raises(SpecSchemaError, match="duplicate"):
        parse_document(doc)


def test_inhomogeneous_relation_rejected():
    doc = minimal()
    doc["algebra"]["relations"] = ["y*x - x"]
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path == "/algebra/relations/0"
    assert "homogeneous" in str(err.value)


def test_group_table_entries_checked():
    doc = minimal()
    doc["action"]["group"]["table"] = [[0, 1], [1, 7]]
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path.startswith("/action/group/table")


def test_matrix_images_must_be_linear():
    doc = minimal()
    doc["action"]["matrices"]["s"] = ["y", "x*y"]
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path.startswith("/action/matrices/s")


def test_unknown_hdet_label():
    doc = minimal()
    doc["options"] = {"hdet": "nope"}
    spec = parse_document(doc)
    with pytest.raises(SpecSchemaError) as err:
        realize(spec, max_degree=4)
    assert err.value.path == "/options/hdet"


def test_divisor_candidates_must_be_degree_one():
    doc = minimal()
    doc["options"] = {"divisor_candidates": ["x*y"]}
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path == "/options/divisor_candidates/0"


def test_table_action_requires_every_basis_image():
    doc = json.loads(catalog.presentation_path("e42-kacpalyutkin").read_text())
    del doc["action"]["matrices"]["xyz"]
    with pytest.raises(SpecSchemaError) as err:
        parse_document(doc)
    assert err.value.path.startswith("/action/matrices")


# ---------------------------------------------------------------------------
# mathematically inconsistent input is caught at realisation


def test_non_cayley_matrices_rejected():
    doc = minimal()
    # identity matrix for the order-two element: inconsistent with the table
    doc["action"]["matrices"]["s"] = ["x", "y - x"]
    spec = parse_document(doc)
    with pytest.raises(ValueError):
        realize(spec, max_degree=4)


def test_corrupted_coproduct_is_a_verification_failure():
    doc = json.loads(catalog.presentation_path("e42-kacpalyutkin").read_text())
    doc["action"]["comult"][-1] = [["1", "1", "1"]]
    spec = parse_document(doc)
    with pytest.raises(ValueError):
        realize(spec, max_degree=4)
