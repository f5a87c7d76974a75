"""The process that runs one workload; started fresh by ``run.py``.

    worker.py setup <workload> <seed> <model.bv>
        Import bvforge, parse and validate the model, print the seconds
        that took.  One fresh interpreter per measurement.

    worker.py jobs <workload> <seed> <model.bv> <seconds> <trace> <spans.jsonl>
        Run the workload's command back to back (one closed-loop
        client) until ``seconds`` have passed.  With trace 1, jobs
        alternate between untraced and traced; the traced ones report
        per-layer figures and write their coarse spans to the file.
        Prints one JSON object.

``bvforge`` must be importable (``run.py`` puts the checkout's ``src``
on ``PYTHONPATH``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from models import Job, make_job
from tracing import Tracer


def setup(job: Job, model_path: str) -> float:
    """Seconds from the first bvforge import to a validated model."""
    start = perf_counter()
    import bvforge.cli  # noqa: F401  (the command's whole import graph)
    from bvforge.modelfile import parse_document

    spec = parse_document(Path(model_path).read_text(encoding="utf-8")).spec
    if "--bounds" in job.flags:
        bounds = dict(piece.split("=") for piece in job.flags[job.flags.index("--bounds") + 1].split(","))
        spec = replace(spec,
                       max_jet_order=int(bounds.get("jet", spec.max_jet_order)),
                       max_poly_degree=int(bounds.get("deg", spec.max_poly_degree)))
    return perf_counter() - start


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of the job the tracer just saw."""
    total, calls, counts = tracer.total_s, tracer.calls, tracer.counts
    enumerated = counts["jet.enumerated"]
    applied = calls["linfty.apply"]
    return {
        "linsolve.solve_s": total["linsolve.solve"],
        "linsolve.rows": counts["linsolve.rows"],
        "linsolve.cols": counts["linsolve.cols"],
        "linsolve.nnz": counts["linsolve.nnz"],
        "linsolve.rank": counts["linsolve.rank"],
        "linsolve.nullity": counts["linsolve.nullity"],
        "master.self_s": tracer.self_s["master.solve"],
        "master.kt_s": total["master.kt"],
        "master.residual_s": total["master.residual"],
        "master.candidates": counts["master.candidates"],
        "master.candidate_yield": counts["master.candidates"] / enumerated if enumerated else 0.0,
        "jet.enumerate_s": total["jet.enumerate"],
        "jet.enumerated": enumerated,
        "algebra.normalize_calls": calls["algebra.normalize"],
        "algebra.normalize_s": total["algebra.normalize"],
        "algebra.graded_partial_calls": calls["algebra.graded_partial"],
        "jet.variational_s": total["jet.variational"],
        "jet.variational_calls": calls["jet.variational"],
        "jet.total_derivative_calls": calls["jet.total_derivative"],
        "jet.noether_s": total["jet.noether"],
        "bracket.antibracket_s": total["bracket.antibracket"],
        "bracket.antibracket_calls": calls["bracket.antibracket"],
        "linfty.check_s": total["linfty.check"],
        "linfty.identity_calls": calls["linfty.identity"],
        "linfty.apply_calls": applied,
        "linfty.apply_s": total["linfty.apply"],
        "linfty.apply_nonzero_frac": counts["linfty.apply_nonzero"] / applied if applied else 0.0,
        "linfty.extract_s": total["linfty.extract"],
        "modelfile.parse_s": total["modelfile.parse"],
        "cli.render_s": total["cli.render"],
    }


def run_jobs(job: Job, model_path: str, seconds: float, trace: bool, spans_path: str) -> dict:
    """Run jobs until the time is up; every job's outcome and, traced, its layers."""
    from bvforge.cli import run_command

    argv = job.argv(model_path)
    tracer = Tracer()
    jobs: list[dict] = []
    reports: dict[str, str] = {}
    layers: list[dict[str, float]] = []
    fired: set[str] = set()
    self_exceeds_total: set[str] = set()
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(jobs) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_job(len(jobs))
        start = perf_counter()
        try:
            status, text = (tracer.call("job", run_command, (argv,)) if traced
                            else run_command(argv))
        except Exception:  # a crash fails the job; the benchmark goes on
            status, text = -1, traceback.format_exc()
        elapsed = perf_counter() - start
        tracer.uninstall()
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        reports.setdefault(sha, text)
        jobs.append({"s": elapsed, "status": status, "sha": sha, "traced": traced})
        if traced:
            layers.append(layer_metrics(tracer))
            fired.update(tracer.calls)
            self_exceeds_total.update(
                name for name, value in tracer.self_s.items()
                if value > tracer.total_s[name] + 1e-9)
        if perf_counter() >= deadline and (not trace or len(jobs) % 2 == 0):
            break

    out = {
        "jobs": jobs,
        "reports": reports,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for job_id, span_id, parent, name, start, end in tracer.records:
                fh.write(json.dumps({"job": job_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
        out["layers"] = layers
        out["fired"] = sorted(fired)
        out["self_exceeds_total"] = sorted(self_exceeds_total)
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, model_path, *rest = argv
    job = make_job(workload, int(seed))
    if mode == "setup":
        print(json.dumps({"setup_s": setup(job, model_path)}))
    elif mode == "jobs":
        seconds, trace, spans_path = rest
        print(json.dumps(run_jobs(job, model_path, float(seconds), trace == "1", spans_path)))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
