"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import bvforge.bracket  # noqa: E402
import bvforge.jet  # noqa: E402
import bvforge.linsolve  # noqa: E402
import bvforge.master  # noqa: E402
from bvforge.cli import run_command  # noqa: E402
from models import DEFAULT_SEED, WORKLOADS, make_job  # noqa: E402
from run import GOLDEN, ROOT, SIZE_KEYS, count_failures, layer_unit  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import layer_metrics  # noqa: E402

GOLDEN_DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _record(text: str, status: int = 0) -> tuple[dict, dict[str, str]]:
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"s": 1.0, "status": status, "sha": sha, "traced": False}, {sha: text}


def _run_traced(workload: str, seed: int, tmp_path: Path) -> tuple[Tracer, str]:
    job = make_job(workload, seed)
    model = tmp_path / f"{workload}-{seed}.bv"
    model.write_text(job.model_text, encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        status, text = run_command(job.argv(str(model)))
    finally:
        tracer.uninstall()
    assert status == 0
    return tracer, text


# ------------------------------------------------------------ checking

def test_corrupted_report_counts_as_failed():
    job = make_job("identities", DEFAULT_SEED)
    golden = GOLDEN_DATA["reports"]["identities"][str(DEFAULT_SEED)]
    good, good_reports = _record("identities checked = 7314\nPASS\n")
    bad, bad_reports = _record("identities checked = 7313\nPASS\n")
    assert good["sha"] == golden
    reports = {**good_reports, **bad_reports}
    assert count_failures(job, golden, [good, good], reports) == 0
    assert count_failures(job, golden, [good, bad, good], reports) == 1


def test_wrong_status_or_bytes_count_as_failed():
    job = make_job("lift-jet", 3)
    line = job.expected_lines[0]
    good, reports = _record(f"{line}\nPASS\n")
    failing, failing_reports = _record(f"{line}\nPASS\n", status=1)
    assert count_failures(job, None, [good], reports) == 0
    assert count_failures(job, None, [failing], failing_reports) == 1
    # right lines, but not the bytes recorded for this seed
    assert count_failures(job, "0" * 64, [good], reports) == 1


def test_closed_form_lift_line_catches_a_wrong_coefficient():
    job = make_job("lift-finite", 5)
    wrong = job.expected_lines[0].replace("lift[1] = ", "lift[1] = 2*", 1)
    record, reports = _record(f"{wrong}\nPASS\n")
    assert count_failures(job, None, [record], reports) == 1


# ----------------------------------------------------------- generator

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 17, 123456):
        assert make_job(workload, seed) == make_job(workload, seed)
    assert make_job(workload, 1).model_text != make_job(workload, 2).model_text


def test_default_open_algebra_is_the_shipped_fixture():
    fixture = BENCH.parent / "tests" / "fixtures" / "open_algebra.bv"
    shipped = [line for line in fixture.read_text().splitlines() if not line.startswith("#")]
    assert make_job("lift-finite", DEFAULT_SEED).model_text.splitlines() == shipped


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_never_size(workload, tmp_path):
    tracer, text = _run_traced(workload, 7, tmp_path)
    assert text == make_job(workload, 7).expected_report
    layers = layer_metrics(tracer)
    assert {key: layers[key] for key in SIZE_KEYS} == GOLDEN_DATA["sizes"][workload]


# ------------------------------------------------------------- tracing

def test_layer_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    reported = [*layer_metrics(Tracer()), "trace.overhead_s"]
    assert sorted(reported) == sorted(metric["name"] for metric in declared)
    assert all(layer_unit(metric["name"]) == metric["unit"] for metric in declared)


def test_self_time_never_exceeds_total_time():
    tracer = Tracer(probes=())

    def leaf():
        return sum(range(2000))

    def nested(depth):
        leaf_value = tracer.call("leaf", leaf)
        if depth:
            tracer.call("nested", nested, (depth - 1,))
        return leaf_value

    tracer.call("top", nested, (3,))
    assert tracer.calls == {"top": 1, "nested": 3, "leaf": 4}
    for name in tracer.calls:
        assert 0 <= tracer.self_s[name] <= tracer.total_s[name]
    # a name is totalled once at its outermost call, recursion included
    assert tracer.total_s["nested"] <= tracer.total_s["top"]


def test_traced_job_keeps_self_within_total_and_report_bytes(tmp_path):
    job = make_job("identities", DEFAULT_SEED)
    tracer, traced_text = _run_traced("identities", DEFAULT_SEED, tmp_path)
    plain_status, plain_text = run_command(job.argv(str(tmp_path / f"identities-{DEFAULT_SEED}.bv")))
    assert plain_status == 0 and plain_text == traced_text
    for name, value in tracer.self_s.items():
        assert value <= tracer.total_s[name] + 1e-9, name
    assert layer_metrics(tracer)["linfty.identity_calls"] == 7314


def test_wrappers_patch_every_binding_and_restore_them():
    originals = {
        (bvforge.master, "solve_linear_system"): bvforge.master.solve_linear_system,
        (bvforge.linsolve, "solve_linear_system"): bvforge.linsolve.solve_linear_system,
        (bvforge.bracket, "variational_derivative"): bvforge.bracket.variational_derivative,
        (bvforge.jet, "variational_derivative"): bvforge.jet.variational_derivative,
        (bvforge.master, "variational_derivative"): bvforge.master.variational_derivative,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
