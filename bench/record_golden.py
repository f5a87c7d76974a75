"""Record the reports and sizes that benchmark runs are checked against.

    PYTHONPATH=src python3 bench/record_golden.py

Runs every workload once per recorded seed at the current commit and
writes ``golden.json``: the sha256 of each text report, and the size
counts of the default seed (which every other seed must reproduce).
A report that does not show the expected lines is refused, not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys

from bvforge.cli import run_command
from models import DEFAULT_SEED, WORKLOADS, make_job
from run import GOLDEN, OUT, SIZE_KEYS
from tracing import Tracer
from worker import layer_metrics

RECORDED_SEEDS = range(32)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    golden: dict = {"reports": {}, "sizes": {}}
    for workload in WORKLOADS:
        shas = golden["reports"][workload] = {}
        for seed in RECORDED_SEEDS:
            job = make_job(workload, seed)
            model = OUT / f"{workload}-{seed}.bv"
            model.write_text(job.model_text, encoding="utf-8")
            traced = seed == DEFAULT_SEED
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                status, text = run_command(job.argv(str(model)))
            finally:
                tracer.uninstall()
            if status != 0 or text != job.expected_report:
                print(f"{workload} seed {seed}: unexpected report\n{text}", file=sys.stderr)
                return 1
            shas[str(seed)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if traced:
                layers = layer_metrics(tracer)
                golden["sizes"][workload] = {key: layers[key] for key in SIZE_KEYS}
            print(workload, seed, shas[str(seed)][:12], flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
