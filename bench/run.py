"""bvforge benchmark: whole CLI jobs end to end, and per layer when traced.

    python3 bench/run.py --workload lift-jet --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; ``bvforge`` is loaded from its ``src``.
Each run first times the set-up of a fresh interpreter several times
(import bvforge, parse and validate the model), then starts one fresh
worker process that runs the workload's command back to back until the
time is up, one job at a time.  Every job is checked: exit status 0,
the expected report text, and for recorded seeds the report's sha256
recorded in ``golden.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (jobs run), ``failed`` (jobs whose status or report was
wrong) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (job_s, setup_s, peak_rss_mb); with ``--trace 1`` the
worker alternates untraced and traced jobs and the metrics are the
per-layer ones (the median_low over traced jobs, so counts stay whole)
plus ``trace.overhead_s``.  The line before it holds the
details: quartiles, sample counts, fail_frac, and any problem found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from models import WORKLOADS, Job, make_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

SETUP_PROBES = 9
TIME_LIMIT_S = 170.0

# counts that fix the size of a workload; every seed must match seed 0
SIZE_KEYS = ("master.candidates", "linsolve.rows", "linsolve.cols", "linsolve.nnz",
             "linfty.identity_calls")

_LIFT_SPANS = {"modelfile.parse", "cli.render", "master.solve", "master.kt",
               "master.residual", "master.candidates", "linsolve.solve", "jet.enumerate",
               "jet.noether", "bracket.antibracket", "algebra.normalize",
               "algebra.graded_partial"}
_LINFTY_SPANS = {"linfty.extract", "linfty.check", "linfty.identity", "linfty.apply"}

# spans that must fire on a workload, and spans it must bypass
EXPECTED_SPANS: dict[str, tuple[set[str], set[str]]] = {
    "lift-jet": (_LIFT_SPANS | {"jet.variational", "jet.total_derivative"}, _LINFTY_SPANS),
    "lift-finite": (_LIFT_SPANS, _LINFTY_SPANS | {"jet.total_derivative"}),
    "identities": ({"modelfile.parse", "cli.render", "master.solve", "master.residual",
                    "jet.noether", "bracket.antibracket", "algebra.normalize",
                    "algebra.graded_partial"} | _LINFTY_SPANS,
                   {"master.kt", "master.candidates", "linsolve.solve", "jet.enumerate"}),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def count_failures(job: Job, golden_sha: str | None, jobs: list[dict],
                   reports: dict[str, str]) -> int:
    """Jobs whose exit status, report text or recorded sha256 is wrong."""
    return sum(
        1 for record in jobs
        if record["status"] != 0
        or reports.get(record["sha"]) != job.expected_report
        or golden_sha not in (None, record["sha"])
    )


def layer_unit(key: str) -> str:
    """Per-layer metrics name their unit by suffix: _s seconds, _yield/_frac ratios."""
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith(("_yield", "_frac")) else "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_problems(workload: str, worker: dict, sizes: dict[str, int]) -> list[str]:
    """What the traced jobs show that is wrong about spans and sizes."""
    problems = []
    must_fire, must_bypass = EXPECTED_SPANS[workload]
    fired = set(worker["fired"])
    problems += [f"span {name} never fired" for name in sorted(must_fire - fired)]
    problems += [f"span {name} fired on a bypass workload" for name in sorted(must_bypass & fired)]
    problems += [f"self time above total time in {name}" for name in worker["self_exceeds_total"]]
    for layers in worker["layers"]:
        for key in SIZE_KEYS:
            if layers[key] != sizes[key]:
                problems.append(f"{key} = {layers[key]}, seed 0 has {sizes[key]}")
    return sorted(set(problems))


def _child(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter; its last output line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args[0]} did not finish in time") from err
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker {args[0]} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (details, result)."""
    deadline = monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "bvforge" / "__init__.py").is_file():
        raise BenchError(f"no bvforge sources under {ROOT / 'src'}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    job = make_job(workload, seed)
    OUT.mkdir(exist_ok=True)
    model = OUT / f"{workload}-{seed}.bv"
    model.write_text(job.model_text, encoding="utf-8")
    spans = OUT / f"{workload}-{seed}.spans.jsonl"
    common = [workload, str(seed), str(model)]

    # the first probe may compile bytecode; it is not counted
    setups = [_child(["setup", *common], deadline)["setup_s"]
              for _ in range(SETUP_PROBES + 1)][1:]
    worker = _child(["jobs", *common, str(seconds), "1" if trace else "0", str(spans)], deadline)

    jobs = worker["jobs"]
    failed = count_failures(job, golden["reports"][workload].get(str(seed)),
                            jobs, worker["reports"])
    plain = [r["s"] for r in jobs if not r["traced"]]
    q1, median, q3 = quartiles(plain)
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "jobs": len(jobs), "fail_frac": failed / len(jobs),
        "job_s": {"median": median, "p25": q1, "p75": q3, "samples": len(plain)},
        "setup_s": {"median": statistics.median(setups), "samples": len(setups)},
        "problems": [],
    }
    if trace:
        traced = [r["s"] for r in jobs if r["traced"]]
        details["problems"] = layer_problems(workload, worker, golden["sizes"][workload])
        metrics = {
            key: {"value": statistics.median_low(layers[key] for layers in worker["layers"]),
                  "unit": layer_unit(key)}
            for key in worker["layers"][0]
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    else:
        metrics = {
            "job_s": {"value": median, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": failed == 0 and not details["problems"],
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    for problem in details["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
