"""Command surface: exit codes, report output, fixture regression runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncreflect
from ncreflect import smash
from ncreflect.cli import EXIT_INTERNAL, MAX_DEGREE, main
from ncreflect.exprs import (
    MAX_EXPANSION,
    MAX_INT_DIGITS,
    MAX_PAREN_DEPTH,
    MAX_TERMS,
    MAX_WORD_LENGTH,
)
from ncreflect.ncalg import MAX_CARRIER
from ncreflect.presentation import MAX_JSON_DEPTH
from ncreflect.presets import catalog
from ncreflect.presets.groups import CLOSURE_CAP
from ncreflect.scalars import MAX_CONDUCTOR


def spec_file(name: str):
    return str(catalog.presentation_path(name))


def mutate_shipped(tmp_path, name: str, fn, fname="mutated.spec") -> str:
    doc = json.loads(catalog.presentation_path(name).read_text())
    fn(doc)
    path = tmp_path / fname
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_every_shipped_file(monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    for name in catalog.shipped():
        assert main(["validate", spec_file(name)]) == 0, name


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-file.spec"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_syntax_error(tmp_path, capsys):
    path = tmp_path / "broken.spec"
    path.write_text('{"format": "ncreflect-spec/1",\n  "field": }\n')
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_validate_non_utf8_file_names_the_byte(tmp_path, capsys):
    path = tmp_path / "latin1.spec"
    path.write_bytes(b'{"name": "' + b"a" * 9000 + b'\xe9"}')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "offset 9010" in err


def test_validate_schema_error_carries_pointer(tmp_path, capsys):
    path = mutate_shipped(
        tmp_path, "e22-dualD8",
        lambda d: d["algebra"]["relations"].__setitem__(0, "^2x"))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "/algebra/relations/0" in err
    assert "at offset 0" in err


def test_validate_relation_above_degree_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NCREFLECT_MAX_DEGREE", raising=False)
    path = mutate_shipped(
        tmp_path, "trivial", lambda d: d["algebra"]["relations"].append("x^40"))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "/algebra/relations/1: degree 40 exceeds the degree bound 12" in err


def test_analyze_degree_bound_below_a_relation(capsys):
    assert main(["analyze", spec_file("trivial"), "--max-degree", "1"]) == 2
    err = capsys.readouterr().err
    assert "/algebra/relations/0: degree 2 exceeds the degree bound 1" in err


def test_validate_conductor_above_maximum(tmp_path, capsys):
    path = mutate_shipped(
        tmp_path, "trivial", lambda d: d["field"].__setitem__("conductor", 1000000000))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"/field/conductor: conductor 1000000000 exceeds the maximum {MAX_CONDUCTOR}" in err


@pytest.mark.parametrize("relation, offset", [
    ("z1000000000*y*x - x*y", 0),
    ("y*x - z2000*x*y", 6),
    ("z" + "9" * 5000 + "*y*x - x*y", 0),  # beyond what int() converts
    ("y*x - (z997*z991)*x*y", 11),  # each root is allowed, their product is not
])
def test_validate_root_of_unity_above_maximum(tmp_path, capsys, relation, offset):
    path = mutate_shipped(
        tmp_path, "trivial", lambda d: d["algebra"]["relations"].__setitem__(0, relation))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "/algebra/relations/0: " in err
    assert "exceeds the maximum" in err and f"at offset {offset}" in err


def test_validate_integer_literal_too_long(tmp_path, capsys):
    # int() refuses strings of over 4300 digits; the parser refuses the
    # literal at its offset before int() sees it
    path = mutate_shipped(
        tmp_path, "trivial",
        lambda d: d["algebra"]["relations"].__setitem__(0, "y*x - " + "9" * 5000 + "*x*y"))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"/algebra/relations/0: integer literal of more than {MAX_INT_DIGITS} digits" in err
    assert "at offset 6" in err


def test_validate_parentheses_nested_too_deep(tmp_path, capsys, monkeypatch):
    # the recursive-descent parser would exceed Python's recursion limit;
    # the '(' one level past the cap is refused at its offset
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")

    def nested(depth):
        return _relations("(" * depth + "x*y" + ")" * depth + " - y*x")

    assert main(["validate", mutate_shipped(tmp_path, "trivial", nested(MAX_PAREN_DEPTH))]) == 0
    path = mutate_shipped(tmp_path, "trivial", nested(5000))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert (f"/algebra/relations/0: parentheses nested deeper than {MAX_PAREN_DEPTH} "
            f"at offset {MAX_PAREN_DEPTH}") in err


def test_validate_json_nested_too_deep(tmp_path, capsys, monkeypatch):
    # json.loads would exceed Python's recursion limit; brackets inside
    # strings do not count
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    path = mutate_shipped(tmp_path, "trivial", lambda d: d.__setitem__("name", "[{" * 500))
    assert main(["validate", path]) == 0
    path = tmp_path / "deep.spec"
    path.write_text("\n" + "[" * 100000 + "]" * 100000)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    off = MAX_JSON_DEPTH + 1
    assert (f"arrays and objects nested deeper than {MAX_JSON_DEPTH} at offset {off} "
            f"(line 2, column {off})") in err


@pytest.mark.parametrize("relation, message", [
    ("x^100000", f"power 100000 exceeds the maximum word length {MAX_WORD_LENGTH} at offset 1"),
    ("(x+y)^1000", f"terms, above the maximum of {MAX_TERMS} pairs at offset 5"),
    # each product is within MAX_TERMS; the 11th '*1' takes their sum past the budget
    ("(x+y)^13" + "*1" * 50, f"products of 106494 pairs of terms in one expression, "
                             f"above the maximum of {MAX_EXPANSION} at offset 28"),
])
def test_validate_expression_refused_before_expansion(tmp_path, capsys, relation, message):
    # the power is refused at its '^' before it is expanded, not after
    path = mutate_shipped(tmp_path, "trivial", _relations(relation))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "/algebra/relations/0: " in err and message in err


def test_analyze_slice_carrier_above_maximum(tmp_path, capsys):
    # 40 free generators: degree 3 would need 40 * 40^2 carrier words
    names = [f"x{k}" for k in range(40)]

    def free(d):
        d["algebra"]["generators"] = [{"name": n, "degree": 1} for n in names]
        d["algebra"]["relations"] = []
        d["action"]["matrices"]["e"] = names

    path = mutate_shipped(tmp_path, "trivial", free)
    assert main(["analyze", path, "--max-degree", "6"]) == 2
    err = capsys.readouterr().err
    assert f"error: degree 3 needs a carrier of 64000 words, above the maximum {MAX_CARRIER}" in err


@pytest.mark.parametrize("name, node, pointer", [
    ("e22-dualD8", ("group", "labels"), "/action/group/labels"),
    ("e42-kacpalyutkin", ("basis",), "/action/basis"),
])
def test_spec_hopf_dimension_above_maximum(tmp_path, capsys, name, node, pointer):
    # refused at the list itself, before the rest of the action is read
    labels = [f"h{k}" for k in range(CLOSURE_CAP + 1)]

    def grow(d):
        parent = d["action"]
        for key in node[:-1]:
            parent = parent[key]
        parent[node[-1]] = labels

    path = mutate_shipped(tmp_path, name, grow)
    assert main(["analyze", path, "--max-degree", "4"]) == 2
    err = capsys.readouterr().err
    assert f"{pointer}: {CLOSURE_CAP + 1} " in err
    assert f"above the maximum Hopf dimension {CLOSURE_CAP}" in err


def test_internal_error_is_one_line_naming_the_innermost_function(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("injected\nsecond line")

    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    monkeypatch.setattr(smash, "pertinency_slices", broken)
    assert main(["analyze", spec_file("trivial")]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == ("internal error in ncreflect.smash.radical_slices: "
                            "RuntimeError: injected\n")
    assert "Traceback" not in captured.out


def _relations(*texts):
    return lambda d: d["algebra"].__setitem__("relations", list(texts))


def _relation_and_image(relation, image):
    def fn(d):
        d["algebra"]["relations"][0] = relation
        d["action"]["matrices"]["e"][0] = image
    return fn


@pytest.mark.parametrize("mutation, pointer", [
    (_relations("z997*x*y - z991*y*x"), "/algebra/relations/0"),
    (_relations("y*x - z997*x*y", "z991*x*x*y - x*y*x"), "/algebra/relations/1"),
    (_relation_and_image("y*x - z997*x*y", "z991*x"), "/action/matrices/e/0"),
])
def test_validate_scalars_whose_lcm_is_above_maximum(tmp_path, capsys, mutation, pointer):
    # each root is allowed and no expression multiplies them, but the
    # elimination over the whole document would need conductor 997 * 991
    path = mutate_shipped(tmp_path, "trivial", mutation)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert (f"{pointer}: the scalars of the document need conductor 988027, "
            f"above the maximum {MAX_CONDUCTOR}") in err


def test_validate_corrupted_coproduct(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "4")
    path = mutate_shipped(
        tmp_path, "e42-kacpalyutkin",
        lambda d: d["action"].__setitem__(
            "comult", d["action"]["comult"][:-1] + [[["1", "1", "1"]]]))
    assert main(["validate", path]) == 3
    assert capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text_report(capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    assert main(["analyze", spec_file("trivial")]) == 0
    out = capsys.readouterr().out
    assert "trivial (to degree 6)" in out
    assert "[checks]" in out


def test_analyze_machine_report_is_byte_stable(tmp_path, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    a, b = tmp_path / "a.report", tmp_path / "b.report"
    args = ["analyze", spec_file("e22-dualD8"), "--format", "machine"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["format"] == "ncreflect-report/1"
    assert doc["max_degree"] == 6


def test_analyze_flag_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "6")
    out = tmp_path / "t.report"
    assert main(["analyze", spec_file("trivial"), "--max-degree", "4",
                 "--format", "machine", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["max_degree"] == 4


def test_analyze_hypothesis_failure_exits_4(tmp_path, monkeypatch):
    # the down-up example declares its fixed ring non-regular; removing the
    # assertion turns the recorded skips into hypothesis failures
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "8")
    path = mutate_shipped(
        tmp_path, "e23-downup-dualD8",
        lambda d: d["options"]["assertions"].__setitem__(
            "as_regular_fixed_ring", True))
    assert main(["analyze", path, "--format", "machine",
                 "--out", str(tmp_path / "e23.report")]) == 4


def test_analyze_wrong_nakayama_candidate_exits_5(tmp_path, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "8")
    path = mutate_shipped(
        tmp_path, "e42-kacpalyutkin",
        lambda d: d["options"].__setitem__("nakayama", ["u", "v"]))
    assert main(["analyze", path, "--format", "machine",
                 "--out", str(tmp_path / "e42.report")]) == 5


def test_declared_idempotents_do_not_reach_the_radical(tmp_path):
    """The radical and the Jacobian transfer split along the projectors the
    analysis verifies, never along the spec's own idempotents: well-formed
    but wrong ones change the rife and isotypic checks, and fail the run,
    but leave the radical and the transfer as they are."""
    wrong = [{"1": "1"}, {"x": "1"}, {"y": "1"}, {"1": "1/2", "z": "1/2"}]
    reports, codes = {}, {}
    for label, fn in (("plain", lambda d: None),
                      ("wrong", lambda d: d["action"].__setitem__("idempotents", wrong))):
        path = mutate_shipped(tmp_path, "e42-kacpalyutkin", fn, f"{label}.spec")
        out = tmp_path / f"{label}.report"
        codes[label] = main(["analyze", path, "--max-degree", "8", "--format", "machine",
                             "--out", str(out)])
        reports[label] = json.loads(out.read_text())
    plain, wrong_idem = reports["plain"], reports["wrong"]
    assert codes["wrong"] == 5
    assert not wrong_idem["isotypic"]["idempotents_match_components"]
    assert wrong_idem["radical"]["hopf_rife"] != plain["radical"]["hopf_rife"]  # the option was read
    for key in ("dims", "quotient_dims", "generator"):
        assert wrong_idem["radical"][key] == plain["radical"][key], key
    assert wrong_idem["transfer"] == plain["transfer"]
    assert plain["transfer"]["xi"] == [1, 0, 2, 0, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("idempotents", [
    [{"1": "1"}, {"x": "1/2", "1": "1/2"}],  # fewer than the four characters
    [{"1": "1"}] * 5,
])
def test_idempotent_count_must_match_the_characters(tmp_path, capsys, idempotents):
    path = mutate_shipped(tmp_path, "e42-kacpalyutkin",
                          lambda d: d["action"].__setitem__("idempotents", idempotents))
    assert main(["analyze", path, "--max-degree", "8"]) == 2
    err = capsys.readouterr().err
    assert "/action/idempotents" in err
    assert f"expected 4 entries, found {len(idempotents)}" in err


def test_analyze_bad_env_value(capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "abc")
    assert main(["analyze", spec_file("trivial")]) == 2
    assert "NCREFLECT_MAX_DEGREE" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# preset


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name, _ in catalog.listing():
        assert name in out


def test_preset_run_whole_catalogue(capsys):
    # the regression suite: every shipped fixture must match byte-for-byte
    for name in catalog.shipped():
        assert main(["preset", "run", name]) == 0, name
        out = capsys.readouterr().out
        assert "report matches" in out, name
        assert "expected values confirmed" in out, name


def test_preset_run_unknown_name(capsys):
    assert main(["preset", "run", "nope"]) == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["0,0", "0,2", "1,0"])
def test_preset_run_rejects_degenerate_mystic_parameters(params, capsys):
    assert main(["preset", "run", f"l41-mystic({params})"]) == 2
    assert "alpha >= 1 and beta >= 2" in capsys.readouterr().err


def test_preset_run_rejects_a_group_above_the_maximum_order(capsys):
    # order 144: the closure stops at the bound, before any character is
    # enumerated, where a full set-up would run for more than a minute
    name = "l41-cyclic-n-m(z3,12,12)"
    assert main(["preset", "run", name, "--max-degree", "2"]) == 2
    err = capsys.readouterr().err
    assert f"error: {name}: the group has more than {CLOSURE_CAP} elements" in err


def test_preset_run_rejects_zero_skew_parameter(capsys):
    # q = 0 would store a zero coefficient in the relation y x - q x y
    assert main(["preset", "run", "l41-cyclic-n-m(0,2,3)"]) == 2
    assert "q must be nonzero" in capsys.readouterr().err


def test_preset_run_degree_bound_below_a_relation(capsys):
    assert main(["preset", "run", "trivial", "--max-degree", "1"]) == 2
    err = capsys.readouterr().err
    assert "relation 0 (-x*y + y*x): degree 2 exceeds the degree bound 1" in err


def test_preset_run_degree_override_skips_comparison(capsys):
    assert main(["preset", "run", "trivial", "--max-degree", "6"]) == 0
    assert "comparison skipped" in capsys.readouterr().out


def _run_cli(args, env_extra=None):
    """The command in a fresh interpreter, killed after 20 s, so that a
    bound that is not refused fails the test instead of hanging it."""
    env = {k: v for k, v in os.environ.items() if k != "NCREFLECT_MAX_DEGREE"}
    src = str(Path(ncreflect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "ncreflect", *args], env=env,
                          capture_output=True, text=True, timeout=20)


@pytest.mark.parametrize("value", [5000, 100000000])
@pytest.mark.parametrize("source", ["--max-degree", "NCREFLECT_MAX_DEGREE",
                                    "options.max_degree"])
def test_degree_bound_above_the_maximum_is_refused(tmp_path, source, value):
    if source == "--max-degree":
        done = _run_cli(["preset", "run", "trivial", "--max-degree", str(value)])
    elif source == "NCREFLECT_MAX_DEGREE":
        done = _run_cli(["preset", "run", "trivial"],
                        {"NCREFLECT_MAX_DEGREE": str(value)})
    else:
        path = mutate_shipped(
            tmp_path, "trivial", lambda d: d["options"].__setitem__("max_degree", value))
        done = _run_cli(["analyze", path])
    assert done.returncode == 2
    assert (f"degree bound {value} from {source} exceeds the maximum {MAX_DEGREE}"
            in done.stderr)


def test_degree_bound_at_the_maximum_is_accepted(monkeypatch, capsys):
    # the bound MAX_DEGREE itself reaches the build, which stops here
    def stop(name, max_degree):
        raise ValueError(f"reached the build at degree {max_degree}")

    monkeypatch.setattr(catalog, "build", stop)
    assert main(["preset", "run", "trivial", "--max-degree", str(MAX_DEGREE)]) == 2
    assert f"reached the build at degree {MAX_DEGREE}" in capsys.readouterr().err


def test_preset_run_detects_drift(tmp_path, capsys, monkeypatch):
    stored = json.loads(catalog.fixture_path("trivial").read_text())
    stored["report"]["hilbert"]["algebra"][3] = 99
    (tmp_path / "trivial.fixture.json").write_text(json.dumps(stored))
    monkeypatch.setattr(catalog, "DATA_DIR", tmp_path)
    assert main(["preset", "run", "trivial"]) == 3
    assert "drifted" in capsys.readouterr().err


def test_preset_run_detects_expected_value_mismatch(tmp_path, capsys,
                                                    monkeypatch):
    stored = json.loads(catalog.fixture_path("trivial").read_text())
    stored["expected"][0]["value"] = "wrong"
    (tmp_path / "trivial.fixture.json").write_text(json.dumps(stored))
    monkeypatch.setattr(catalog, "DATA_DIR", tmp_path)
    assert main(["preset", "run", "trivial"]) == 3
    assert "expected-value mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# divisors


def test_divisors_certificate_mode(capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "8")
    assert main(["divisors", spec_file("e42-kacpalyutkin"),
                 "--element", "u^3*v + u*v^3", "--side", "left"]) == 0
    out = capsys.readouterr().out
    assert "certificate mode" in out
    assert out.count("|  f =") == 4


def test_divisors_both_sides_differ(capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "8")
    assert main(["divisors", spec_file("e42-kacpalyutkin"),
                 "--element", "u^3*v + u*v^3"]) == 0
    out = capsys.readouterr().out
    assert "u - z8^3*v" in out  # left line
    assert "u - z8*v" in out    # right line


def test_divisors_rejects_bad_elements(capsys, monkeypatch):
    monkeypatch.setenv("NCREFLECT_MAX_DEGREE", "4")
    f = spec_file("e42-kacpalyutkin")
    assert main(["divisors", f, "--element", "^2x"]) == 2
    assert main(["divisors", f, "--element", "u + u^2"]) == 2
    assert main(["divisors", f, "--element", "u - u"]) == 2
    err = capsys.readouterr().err
    assert "offset" in err
    assert "homogeneous" in err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
