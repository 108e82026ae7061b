"""Command-line surface.

Five commands sharing one exit-code convention::

    validate <file>                     parse + verify the structure
    analyze  <file> [--max-degree D] [--out PATH] [--format text|machine]
    preset   list
    preset   run <name> [--max-degree D]   run + diff against the fixture
    divisors <file> --element "<expr>" [--side left|right|both]

Exit codes: 0 everything passed; 2 input problems (syntax, schema, bad
flags, unknown preset, a slice or a Hopf algebra above its size limit);
3 verification failure (Hopf axioms, module-algebra laws, fixture
drift); 4 a hypothesis flag (the input is outside the theorems'
assumptions); 5 a theorem check failed; 70 an internal error: any other
exception, reported as one line ``internal error in <module>.<function>: <type>: <message>``
that names the innermost ncreflect function on the traceback, which is
not printed.

The truncation bound is resolved as: ``--max-degree`` flag, then the
``NCREFLECT_MAX_DEGREE`` environment variable, then ``options.max_degree``
from the input file (for presets: the fixture's stored degree), then 12.
A resolved bound above ``MAX_DEGREE`` exits 2 before anything is built.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import traceback
from pathlib import Path

from . import presentation
from .analysis import Check, analyze, report_json, report_text
from .divisors import divisor_report
from .exprs import ExprError, p_degree, parse
from .ncalg import CarrierTooLarge
from .presets import catalog
from .presets.catalog import Preset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 70

# The work of an analysis grows like a power of the degree bound: every
# shipped preset runs at 48, while at 5000 a run would not end in any
# useful time (docs/input-format.md, "Resource limits").
MAX_DEGREE = 100


class CommandError(Exception):
    """Abort the running command with a message and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# shared plumbing


def _degree(flag: int | None, file_default: int | None) -> int:
    """Resolve the truncation bound (flag > environment > file > 12), at
    most ``MAX_DEGREE``."""
    env = os.environ.get("NCREFLECT_MAX_DEGREE")
    if flag is not None:
        if flag < 1:
            raise CommandError(EXIT_INPUT, "--max-degree must be positive")
        value, source = flag, "--max-degree"
    elif env is not None:
        try:
            value = int(env)
        except ValueError:
            raise CommandError(
                EXIT_INPUT,
                f"NCREFLECT_MAX_DEGREE must be an integer, got {env!r}")
        if value < 1:
            raise CommandError(
                EXIT_INPUT, "NCREFLECT_MAX_DEGREE must be positive")
        source = "NCREFLECT_MAX_DEGREE"
    elif file_default is not None:
        value, source = file_default, "options.max_degree"
    else:
        return 12
    if value > MAX_DEGREE:
        raise CommandError(
            EXIT_INPUT,
            f"degree bound {value} from {source} exceeds the maximum {MAX_DEGREE}")
    return value


def _load(path: str) -> presentation.InputSpec:
    try:
        return presentation.load(path)
    except OSError as e:
        raise CommandError(EXIT_INPUT, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CommandError(EXIT_INPUT, f"{path}: not UTF-8 text: invalid byte at offset {e.start}")
    except presentation.SpecSyntaxError as e:
        raise CommandError(EXIT_INPUT, f"{path}: {e}")
    except presentation.SpecSchemaError as e:
        raise CommandError(EXIT_INPUT, f"{path}: {e}")


def _realize(spec: presentation.InputSpec, max_degree: int) -> Preset:
    try:
        return presentation.realize(spec, max_degree=max_degree)
    except (presentation.SpecSchemaError, CarrierTooLarge) as e:
        raise CommandError(EXIT_INPUT, str(e))
    except ValueError as e:
        # mathematically inconsistent input (bad matrices, degree mixing,
        # non-generating set ...) discovered while building the model
        raise CommandError(EXIT_VERIFY, str(e))


def _check_summary(checks: list[Check]) -> str:
    counts: dict[str, int] = {}
    for c in checks:
        counts[c.status] = counts.get(c.status, 0) + 1
    parts = [f"{counts[s]} {s}" for s in ("pass", "fail", "skip") if s in counts]
    return ", ".join(parts) if parts else "none"


def _print_check_lines(checks: list[Check], *, only_notable: bool = False) -> None:
    for c in checks:
        if only_notable and c.status == "pass":
            continue
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"  {c.name} [{c.klass}]: {c.status}{detail}")


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    bound = _degree(None, spec.max_degree)
    preset = _realize(spec, bound)
    preset.algebra.build(bound)
    witnesses = preset.hopf.verify()
    if witnesses:
        for w in witnesses:
            print(f"hopf axiom failure: {w}", file=sys.stderr)
        return EXIT_VERIFY
    failures = preset.action.verify()
    if failures:
        for w in failures:
            print(f"module-algebra failure: {w}", file=sys.stderr)
        return EXIT_VERIFY
    try:
        preset.hopf.integral()
    except ValueError as e:
        print(f"integral failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    label = spec.name or args.file
    print(f"ok: {label} ({preset.algebra.ngens} generators, "
          f"Hopf dimension {preset.hopf.dim}, degree bound {bound})")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    bound = _degree(args.max_degree, spec.max_degree)
    preset = _realize(spec, bound)
    result = analyze(preset, bound)
    text = (report_text(result.document) if args.format == "text"
            else report_json(result.document))
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise CommandError(EXIT_INPUT, f"{args.out}: {e.strerror or e}")
        print(f"wrote {args.out}")
        print(f"checks: {_check_summary(result.checks)}")
        _print_check_lines(result.checks, only_notable=True)
    else:
        sys.stdout.write(text)
    return result.exit_code


def _cmd_preset_list(args: argparse.Namespace) -> int:
    for name, description in catalog.listing():
        print(f"{name:26}  {description}")
    return EXIT_OK


def _pointer(doc, path: str):
    """Resolve a JSON-pointer path; returns (value, found)."""
    node = doc
    if path in ("", "/"):
        return node, True
    for raw in path.lstrip("/").split("/"):
        part = raw.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if part not in node:
                return None, False
            node = node[part]
        elif isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                return None, False
        else:
            return None, False
    return node, True


def _cmd_preset_run(args: argparse.Namespace) -> int:
    path = catalog.fixture_path(args.name)
    fixture = None
    if path is not None and path.exists():
        fixture = json.loads(path.read_text())
        if fixture.get("format") != catalog.FIXTURE_FORMAT:
            raise CommandError(
                EXIT_INPUT,
                f"{path}: unknown fixture format {fixture.get('format')!r}")
    stored_degree = fixture["max_degree"] if fixture is not None else None
    bound = _degree(args.max_degree, stored_degree)
    try:
        preset = catalog.build(args.name, max_degree=bound)
    except KeyError as e:
        raise CommandError(EXIT_INPUT, e.args[0])
    except ValueError as e:
        raise CommandError(EXIT_INPUT, f"{args.name}: {e}")

    result = analyze(preset, bound)
    print(f"{preset.name} (degree {bound})")
    print(f"checks: {_check_summary(result.checks)}")
    _print_check_lines(result.checks, only_notable=True)
    code = result.exit_code

    if fixture is None:
        print("fixture: none stored for this parametrisation; analysis only")
        return code
    if bound != stored_degree:
        print(f"fixture: stored at degree {stored_degree}, "
              f"ran at {bound}; comparison skipped")
        return code

    drifted = False
    stored = report_json(fixture["report"])
    fresh = report_json(result.document)
    if stored != fresh:
        drifted = True
        diff = list(difflib.unified_diff(
            stored.splitlines(), fresh.splitlines(),
            "fixture", "run", lineterm="", n=1))
        for line in diff[:40]:
            print(line, file=sys.stderr)
        if len(diff) > 40:
            print(f"... {len(diff) - 40} more diff lines", file=sys.stderr)
        print("fixture: report drifted from the stored golden file",
              file=sys.stderr)

    expected = fixture.get("expected", [])
    tags: dict[str, int] = {}
    bad: list[str] = []
    for item in expected:
        got, found = _pointer(result.document, item["path"])
        if not found:
            bad.append(f"{item['path']}: section missing from the report")
        elif got != item["value"]:
            bad.append(f"{item['path']}: expected {item['value']!r}, got {got!r}")
        else:
            tag = item.get("tag", "?")
            tags[tag] = tags.get(tag, 0) + 1
    for line in bad:
        print(f"expected-value mismatch: {line}", file=sys.stderr)
    if not drifted and not bad:
        by_tag = ", ".join(f"{tags[t]} {t}" for t in sorted(tags))
        print(f"fixture: report matches; {len(expected)} expected values "
              f"confirmed ({by_tag})")
        return code
    return EXIT_VERIFY


def _cmd_divisors(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    bound = _degree(None, spec.max_degree)
    preset = _realize(spec, bound)
    alg = preset.algebra
    alg.build(bound)
    try:
        poly = parse(args.element, alg.gen_names)
    except ExprError as e:
        raise CommandError(EXIT_INPUT, f"--element: {e}")
    if not poly:
        raise CommandError(
            EXIT_INPUT, "--element: divisors of the zero element are undefined")
    degree = p_degree(poly, alg.weights)
    if degree is None:
        raise CommandError(
            EXIT_INPUT,
            "--element: not homogeneous for the declared generator degrees")
    if degree > bound:
        raise CommandError(
            EXIT_INPUT,
            f"--element: degree {degree} exceeds the bound {bound}")
    f = alg.element(args.element, degree)
    mode = "certificate" if alg.ngens == 2 and alg.dim(1) == 2 else "candidates"
    extra = tuple(alg.element(t, 1)
                  for t in preset.options.get("divisor_candidates") or ())
    sides = ("left", "right") if args.side == "both" else (args.side,)
    shown = alg.show_vec(f.vec, f.degree)
    print(f"element: {shown} (degree {degree}, {mode} mode)")
    for side in sides:
        report = divisor_report(alg, f, side, mode=mode,
                                conductor=preset.conductor,
                                extra_candidates=extra)
        print(f"{side}:")
        if not report.lines:
            print("  no degree-one divisors")
        for line, cof in zip(report.lines, report.cofactors):
            cof_text = alg.show_vec(cof.vec, cof.degree) if cof is not None else "?"
            line_text = alg.show_vec(line.vec, 1)
            if side == "left":
                print(f"  {line_text}  |  f = ({line_text}) * ({cof_text})")
            else:
                print(f"  {line_text}  |  f = ({cof_text}) * ({line_text})")
        if report.residual_degree:
            note = " (complete factorisation not certified)" \
                if report.residual_warning else ""
            print(f"  residual degree {report.residual_degree}{note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncreflect",
        description="exact invariants of graded algebras under "
                    "semisimple Hopf actions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", help="parse a presentation file and verify the structure")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "analyze", help="run the full analysis and emit a report")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None, metavar="D")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("preset", help="built-in example catalogue")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = psub.add_parser("list", help="list catalogue names")
    q.set_defaults(func=_cmd_preset_list)
    q = psub.add_parser(
        "run", help="run a catalogue entry and diff against its fixture")
    q.add_argument("name")
    q.add_argument("--max-degree", type=int, default=None, metavar="D")
    q.set_defaults(func=_cmd_preset_run)

    p = sub.add_parser(
        "divisors", help="degree-one divisor lines of a homogeneous element")
    p.add_argument("file")
    p.add_argument("--element", required=True, metavar="EXPR")
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.set_defaults(func=_cmd_divisors)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except CarrierTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        message = str(e).partition("\n")[0]
        print(f"internal error in {_innermost_frame(e)}: {type(e).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _innermost_frame(exc: BaseException) -> str:
    """<module>.<function> of the innermost ncreflect frame that raised exc;
    the traceback starts at main, so there is one."""
    names = [f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
             for frame, _ in traceback.walk_tb(exc.__traceback__)
             if frame.f_globals.get("__name__", "").split(".")[0] == "ncreflect"]
    return names[-1]


if __name__ == "__main__":
    raise SystemExit(main())
