"""Self-checks of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

catalog, analysis = run.load_engine()


def _report(name: str, trace: tracer.Tracer | None = None) -> str:
    preset = catalog.build(name, max_degree=run.DEGREE)
    if trace is None:
        return analysis.report_json(analysis.analyze(preset, run.DEGREE).document)
    with trace:
        return analysis.report_json(analysis.analyze(preset, run.DEGREE).document)


def test_stages_are_the_layer_functions_analyze_calls():
    assert set(tracer.STAGES) == tracer.analysis_stage_names(analysis)


def test_tracer_wraps_every_stage_and_restores_every_binding():
    def bindings():
        owners = [m for k, m in sys.modules.items()
                  if k.split(".")[0] == "ncreflect" and m is not None]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("ncreflect")]
        # functools.wraps reads a class's __annotations__, which creates an
        # empty one on a class that had none; that is not a binding
        return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()
                if k != "__annotations__"}

    before = bindings()
    originals = {name: getattr(analysis, name) for name in tracer.STAGES}
    with tracer.Tracer():
        assert all(getattr(analysis, name) is not originals[name]
                   for name in tracer.STAGES)
    assert bindings() == before


@pytest.mark.parametrize("name", ["l41-mystic(1,2)", "e23-downup-dualD8"])
def test_traced_reports_are_byte_identical(name):
    trace = tracer.Tracer()
    assert _report(name, trace) == _report(name)
    assert trace.counts["scalars.mul_calls"] > 0
    assert trace.seconds[f"stage.{tracer.STAGES[0]}_s"] > 0
    # the dual-group path never forms the smash product
    smash_calls = trace.counts["smash.mul_calls"]
    assert (smash_calls == 0) == (name == "e23-downup-dualD8")


def test_gate_flags_every_kind_of_failure():
    fixture = run.load_fixtures(catalog, ["trivial"])["trivial"]
    good = SimpleNamespace(exit_code=0, document=copy.deepcopy(fixture["report"]))
    assert run.gate(analysis, fixture, good) == []

    assert run.gate(analysis, fixture, SimpleNamespace(
        exit_code=5, document=good.document)) == ["exit code 5"]

    drifted = copy.deepcopy(good.document)
    drifted["name"] += " "
    assert run.gate(analysis, fixture, SimpleNamespace(
        exit_code=0, document=drifted)) == ["report differs from the stored fixture"]

    wrong = copy.deepcopy(fixture)
    wrong["expected"][0]["value"] = "not this"
    problems = run.gate(analysis, wrong, good)
    assert problems == [f"expected value {wrong['expected'][0]['path']} mismatches"]


def _raise(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("failure", ["expected value", "analyze raises"])
def test_a_failed_preset_is_counted_and_keeps_its_time(failure):
    runner = run.Runner("mixed-field")
    runner.names = ("trivial",)
    if failure == "expected value":
        runner.fixtures["trivial"]["expected"][0]["value"] = "not this"
    else:
        runner.analysis = SimpleNamespace(analyze=_raise)
    times = runner.rep()
    assert runner.attempted == 1 and runner.failed == 1
    assert times["trivial"] > 0


def test_probe_operands_follow_the_seed():
    keys = [[x.key() for triple in run.probe_operands(seed, 12) for x in triple]
            for seed in (1, 1, 2)]
    assert keys[0] == keys[1] != keys[2]


def test_speed_sampler_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as instant:
        pass
    assert len(instant.samples) == 1 and instant.scale() > 0
    with speed.SpeedSampler() as busy:
        end = time.perf_counter() + 5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(busy.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_seconds_count_work_not_machine_speed():
    # The reference loop itself takes REFERENCE_LOOP_S reference seconds
    # whatever the machine's speed; sampling adds about 1%.
    loops, work = 400, speed.SpeedSampler()
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        for _ in range(loops):
            work._loop()
        wall = time.perf_counter() - start
    reference = wall * sampler.scale() / (loops * speed.REFERENCE_LOOP_S)
    assert 0.7 < reference < 1.3


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "dual-group", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
