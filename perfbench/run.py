"""Benchmark of ncreflect: time to a byte-exact report on preset families.

Run from anywhere; the engine is imported from ``src/`` next to this
directory::

    python3 perfbench/run.py --workload dual-group --seed 1 --seconds 30 --trace 0

Each run builds the presets of one workload with ``catalog.build``, runs
``analysis.analyze`` on them back to back (one client, closed loop, no
threads) at degree bound 12 and checks every report byte for byte
against its golden fixture, together with the exit code and the tagged
``expected`` values, exactly as ``ncreflect preset run`` does.  It
repeats this for about ``--seconds`` and reports medians over the
repetitions.

``--trace 0`` reports the end-to-end metrics: ``analyze_s``, ``setup_s``
(median over fresh processes, one before each pass, that import the
engine, build every bundle and load every fixture) and ``peak_rss_mb``.
Both times are in reference seconds: wall seconds scaled by the machine's
speed, which ``speed.py`` samples while they are measured.  ``--trace 1`` reports the
per-layer metrics of ``tracer.py``, the per-preset times and the
tracing overhead, plus a seeded probe of scalar multiply-then-subtract.
The last line of standard output is the result object; the line before
it holds the run's metadata.  See README.md for the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler
from tracer import LAYER_UNITS, STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEGREE = 12

WORKLOADS = {
    "radical-mystic24": ("l41-mystic(2,4)",),
    "dual-group": ("e22-dualD8", "e23-downup-dualD8"),
    "mixed-field": ("e42-kacpalyutkin", "l41-cyclic-n-m(z3,2,3)",
                    "l41-mystic(1,2)", "trivial"),
}

PROBE_CONDUCTORS = (1, 4, 8, 12)
PROBE_OPERANDS = 64
PROBE_BATCHES = 7

END_TO_END_UNITS = {"analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_engine():
    """Import ncreflect from the checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "ncreflect" / "__init__.py").is_file():
        raise BenchError(f"no ncreflect sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # the command-line module too, so set-up imports what preset run does
    from ncreflect import analysis, cli  # noqa: F401
    from ncreflect.presets import catalog
    return catalog, analysis


def load_fixtures(catalog, names) -> dict[str, dict]:
    fixtures = {}
    for name in names:
        path = catalog.fixture_path(name)
        if path is None or not path.is_file():
            raise BenchError(f"{name}: no golden fixture")
        fixture = json.loads(path.read_text())
        if fixture.get("format") != catalog.FIXTURE_FORMAT:
            raise BenchError(f"{path}: unknown fixture format")
        if fixture.get("max_degree") != DEGREE:
            raise BenchError(f"{path}: stored at degree {fixture.get('max_degree')}, "
                             f"the benchmark runs at {DEGREE}")
        fixtures[name] = fixture
    return fixtures


def gate(analysis, fixture: dict, result) -> list[str]:
    """Every way a report can fail its fixture; empty when it passes."""
    from ncreflect.cli import _pointer
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    if analysis.report_json(result.document) != analysis.report_json(fixture["report"]):
        problems.append("report differs from the stored fixture")
    for item in fixture.get("expected", []):
        got, found = _pointer(result.document, item["path"])
        if not found or got != item["value"]:
            problems.append(f"expected value {item['path']} mismatches")
    return problems


class Runner:
    """Runs the presets of one workload and keeps the gate's tally."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = WORKLOADS[workload]
        self.catalog, self.analysis = load_engine()
        self.fixtures = load_fixtures(self.catalog, self.names)
        self.attempted = 0
        self.failed = 0
        self.documents: dict[str, dict] = {}

    def rep(self, tracer=None) -> dict[str, float]:
        """One pass over the workload: seconds inside analyze per preset.

        Bundles are built before ``tracer`` is entered, so it sees only
        the work of analyze.  A preset that fails keeps its time and is
        counted in ``failed``.
        """
        bundles = [(name, self.catalog.build(name, max_degree=DEGREE))
                   for name in self.names]
        gc.collect()
        times = {}
        with tracer if tracer is not None else contextlib.nullcontext():
            for name, preset in bundles:
                self.attempted += 1
                start = time.perf_counter()
                try:
                    result = self.analysis.analyze(preset, DEGREE)
                except Exception:
                    result = None
                    traceback.print_exc()
                times[name] = time.perf_counter() - start
                problems = (["analyze raised"] if result is None
                            else gate(self.analysis, self.fixtures[name], result))
                if problems:
                    self.failed += 1
                    print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                if result is not None:
                    self.documents[name] = result.document
        return times


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once, and again while that is expected to
    end the run closer to ``seconds`` than stopping now would."""
    out, spent = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(spent) / 2 > seconds:
            return out


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_child(workload: str) -> int:
    with SpeedSampler() as speed:
        catalog, _ = load_engine()
        for name in WORKLOADS[workload]:
            catalog.build(name, max_degree=DEGREE)
        load_fixtures(catalog, WORKLOADS[workload])
    sys.stdout.write(f"ready {speed.scale()!r}\n")
    sys.stdout.flush()
    return 0


def setup_seconds(workload: str) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter until it has imported
    the engine, built every bundle and loaded every fixture, and the
    speed scale the fresh process sampled meanwhile."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--setup-child", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    word, _, scale = line.decode().partition(" ")
    if child.returncode != 0 or word != "ready":
        raise BenchError("set-up in a fresh process failed")
    return elapsed, float(scale)


# ---------------------------------------------------------------------------
# the scalar probe


def probe_operands(seed: int, n: int) -> list[tuple]:
    """Seeded triples (a, b, c) in Q(zeta_n), built from public
    constructors only: sums of random rationals times powers of zeta_n."""
    from ncreflect.scalars import Cyc, euler_phi, zeta
    rng = random.Random(seed * 1000 + n)

    def operand():
        value = Cyc.rational(rng.randint(1, 9), rng.randint(1, 9))
        for k in range(1, euler_phi(n)):
            value = value + Cyc.rational(rng.randint(-9, 9), rng.randint(1, 9)) * zeta(n, k)
        return value

    return [(operand(), operand(), operand()) for _ in range(PROBE_OPERANDS)]


def scalar_probe(seed: int) -> dict[str, float]:
    """Nanoseconds per ``a * b - c`` at each probe conductor, the median
    over batches that each cover every seeded operand triple once."""
    out = {}
    for n in PROBE_CONDUCTORS:
        triples = probe_operands(seed, n)
        batches = []
        for _ in range(PROBE_BATCHES):
            start = time.perf_counter()
            for a, b, c in triples:
                a * b - c
            batches.append((time.perf_counter() - start) / len(triples) * 1e9)
        out[f"scalars.mul_ns.q{n}"] = statistics.median(batches)
    return out


# ---------------------------------------------------------------------------
# the two kinds of run


def fixture_stem(catalog, name: str) -> str:
    return catalog.fixture_path(name).name.removesuffix(".fixture.json")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    catalog, _ = load_engine()
    return {
        **LAYER_UNITS,
        "stage.other_s": "s",
        "smash.pertinency_codim": "count",
        **{f"scalars.mul_ns.q{n}": "ns" for n in PROBE_CONDUCTORS},
        **{f"preset.{fixture_stem(catalog, name)}_s": "s"
           for name in catalog.shipped()},
        "trace_overhead": "ratio",
    }


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Passes over the workload, each after one set-up in a fresh process.

    Each time is scaled to reference seconds by the speed sampled while
    it ran; the wall times go into the metadata.  The machine's speed
    drifts over tens of seconds, so set-ups are spread over the run like
    the passes rather than made back to back.
    """
    runs: dict[str, list[float]] = {
        key: [] for key in ("analyze_s_runs", "analyze_wall_s_runs",
                            "setup_s_runs", "setup_wall_s_runs")}

    def step():
        wall, scale = setup_seconds(runner.workload)
        runs["setup_wall_s_runs"].append(wall)
        runs["setup_s_runs"].append(wall * scale)
        with SpeedSampler() as speed:
            wall = sum(runner.rep().values())
        runs["analyze_wall_s_runs"].append(wall)
        runs["analyze_s_runs"].append(wall * speed.scale())

    repeat(step, seconds)
    values = {
        "analyze_s": statistics.median(runs["analyze_s_runs"]),
        "setup_s": statistics.median(runs["setup_s_runs"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, runs


def traced(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """One untraced pass, then traced passes for the rest of ``seconds``.

    Counts repeat exactly from pass to pass; times are medians.
    """
    plain = runner.rep()
    plain_total = sum(plain.values())
    passes: list[tuple[Tracer, float]] = []

    def traced_rep():
        tracer = Tracer()
        passes.append((tracer, sum(runner.rep(tracer).values())))

    repeat(traced_rep, seconds - plain_total)
    layers = [t.metrics() for t, _ in passes]
    values = {name: statistics.median(m[name] for m in layers)
              for name in LAYER_UNITS}
    analyze_traced = statistics.median(total for _, total in passes)
    values["stage.other_s"] = analyze_traced - statistics.median(
        sum(t.seconds[f"stage.{name}_s"] for name in STAGES) for t, _ in passes)
    values["smash.pertinency_codim"] = sum(
        doc["radical"]["quotient_dims"][-1]
        for doc in runner.documents.values()
        if doc.get("radical", {}).get("method") == "smash-pertinency")
    values.update(scalar_probe(seed))
    for name in runner.catalog.shipped():
        values[f"preset.{fixture_stem(runner.catalog, name)}_s"] = plain.get(name, 0.0)
    values["trace_overhead"] = analyze_traced / plain_total
    return values, {"traced_runs": len(passes), "untraced_runs": 1}


# ---------------------------------------------------------------------------
# metadata and entry point


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args) -> dict:
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "degree": DEGREE,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            return setup_child(args.workload)
        meta = metadata(args)
        runner = Runner(args.workload)
        if args.trace:
            values, runs = traced(runner, args.seconds, args.seed)
            units = per_layer_units()
        else:
            values, runs = end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    meta.update(runs, failed_share=runner.failed / runner.attempted)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
