"""Seeded mutations of the shipped specs.

Each mutation deletes a field, duplicates or shortens a list, retypes a
value, inflates a number or nests a string in parentheses somewhere in a
shipped spec, then runs
``analyze --max-degree 4`` on it (8 for the idempotent counts, which the
rife check reads only above degree 4).  Whatever the mutation, the run must
end with a documented exit code (0, 2, 3, 4 or 5), never with an
internal error (70) or a traceback.  The mutations are drawn from a
random generator seeded by the spec and the kind of mutation, so every
run draws the same ones.
"""

from __future__ import annotations

import json
import random
import signal

import pytest

from ncreflect.cli import main
from ncreflect.presets import catalog

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
KINDS = ("delete", "duplicate", "shorten", "retype", "inflate", "nest")
PER_KIND = 4
CASE_SECONDS = 20  # a run past this is a hang


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so the CLI's last-resort
    handler does not turn it into exit 70."""


def nodes(doc, path=()):
    """(path, value) of every value below the root, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def retyped(value):
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return {"0": value}
    return list(value.values()) if isinstance(value, dict) else True


def inflated(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value * 1_000_003 + 999_999_937
    return "9" * 40 + "/" + "7" * 40  # a scalar far beyond any shipped one


def is_number(value) -> bool:
    """An integer, or a string holding an integer or a fraction."""
    if isinstance(value, str):
        return value.lstrip("-").replace("/", "", 1).isdigit()
    return isinstance(value, int) and not isinstance(value, bool)


def mutate(doc, kind: str, rng: random.Random) -> str:
    """Apply one mutation of this kind in place; return where it went."""
    found = list(nodes(doc))
    if kind == "delete":
        candidates = [p for p, _ in found if isinstance(parent_of(doc, p), dict)]
    elif kind in ("duplicate", "shorten"):
        candidates = [p for p, v in found if isinstance(v, list) and v]
    elif kind == "retype":
        candidates = [p for p, _ in found]
    elif kind == "inflate":
        candidates = [p for p, v in found if is_number(v)]
    else:
        candidates = [p for p, v in found if isinstance(v, str)]
    path = rng.choice(candidates)
    parent = parent_of(doc, path)
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate":
        parent[key].append(parent[key][rng.randrange(len(parent[key]))])
    elif kind == "shorten":
        parent[key].pop()
    elif kind == "retype":
        parent[key] = retyped(parent[key])
    elif kind == "inflate":
        parent[key] = inflated(parent[key])
    else:
        depth = rng.choice((1, 150))  # past the parser's nesting bound
        parent[key] = "(" * depth + parent[key] + ")" * depth
    return f"{kind} /{'/'.join(map(str, path))}"


def cases():
    out = []
    for name in catalog.shipped():
        doc = json.loads(catalog.presentation_path(name).read_text())
        for kind in KINDS:
            rng = random.Random(f"{name}:{kind}")
            for _ in range(PER_KIND):
                mutated = json.loads(json.dumps(doc))
                where = mutate(mutated, kind, rng)
                out.append((name, where, mutated, 4))
        action = doc["action"]
        if action["kind"] == "table":
            # the declared idempotents are a list too: one per character
            unit = action["unit"]
            for count in (len(action["characters"]) - 1, len(action["characters"]) + 1):
                mutated = json.loads(json.dumps(doc))
                mutated["action"]["idempotents"] = [unit] * count
                out.append((name, f"{count} idempotents", mutated, 8))
    return out


def _hang(signum, frame):
    raise Hang


def test_mutated_specs_exit_with_documented_codes(tmp_path, capsys):
    codes = {}
    previous = signal.signal(signal.SIGALRM, _hang)
    try:
        for n, (name, where, doc, degree) in enumerate(cases()):
            path = tmp_path / f"case{n}.spec"
            path.write_text(json.dumps(doc))
            signal.alarm(CASE_SECONDS)
            try:
                code = main(["analyze", str(path), "--max-degree", str(degree),
                             "--format", "machine", "--out", str(tmp_path / "report")])
            except Hang:
                pytest.fail(f"{name}: {where}: no exit within {CASE_SECONDS} s")
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert code in DOCUMENTED_EXITS, f"{name}: {where}: exit {code}: {err}"
            codes[f"{name}: {where}"] = code
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the mutations reach past the schema: some runs get to the analysis
    assert 2 in codes.values() and set(codes.values()) - {2}
