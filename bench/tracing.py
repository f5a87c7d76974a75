"""Outside-in spans around the public functions of each bvforge module.

The benchmark records where a job spends its time without any hook in
the program: it replaces each traced function by a timing wrapper in
every ``bvforge`` module that holds a binding of it.  A module that did
``from .jet import variational_derivative`` has its own name for the
function, so patching ``bvforge.jet`` alone would miss the calls made
from ``bvforge.bracket`` and ``bvforge.master``.

Every span adds its duration to the self time of its parent.  Time
totals count a name only at its outermost active call, so recursion
through the same layer is not counted twice.  Spans of the coarse
layers are also kept as records (job, id, parent, name, start, end);
the hot kernels, called thousands of times per job, are aggregated
only.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Probe:
    """A traced function: where it is defined and how its calls are counted."""

    span: str
    module: str
    attr: str  # "name" or "Class.method"
    hot: bool = False
    observe: Callable[[Counter, tuple, dict, Any], None] | None = None


def _observe_solve(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    equations = args[0] if args else kwargs["equations"]
    num_unknowns = args[2] if len(args) > 2 else kwargs["num_unknowns"]
    counts["linsolve.rows"] += len(equations)
    counts["linsolve.cols"] += num_unknowns
    counts["linsolve.nnz"] += sum(len(row) for row in equations)
    if result is not None:
        counts["linsolve.rank"] += result.rank
        counts["linsolve.nullity"] += result.nullity


def _observe_len(key: str) -> Callable[[Counter, tuple, dict, Any], None]:
    def observe(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += len(result)
    return observe


def _observe_apply(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    if not result.is_zero:
        counts["linfty.apply_nonzero"] += 1


PROBES = (
    Probe("modelfile.parse", "bvforge.modelfile", "parse_document"),
    Probe("cli.render", "bvforge.cli", "Report.render"),
    Probe("master.solve", "bvforge.master", "solve_master"),
    Probe("master.kt", "bvforge.master", "kt_differential"),
    Probe("master.residual", "bvforge.master", "master_residual"),
    Probe("master.candidates", "bvforge.master", "correction_candidates",
          observe=_observe_len("master.candidates")),
    Probe("linsolve.solve", "bvforge.linsolve", "solve_linear_system",
          observe=_observe_solve),
    Probe("jet.enumerate", "bvforge.jet", "enumerate_basis_monomials",
          observe=_observe_len("jet.enumerated")),
    Probe("jet.noether", "bvforge.jet", "check_noether"),
    Probe("jet.variational", "bvforge.jet", "variational_derivative", hot=True),
    Probe("jet.total_derivative", "bvforge.jet", "total_derivative", hot=True),
    Probe("bracket.antibracket", "bvforge.bracket", "antibracket"),
    Probe("algebra.normalize", "bvforge.algebra", "normalize", hot=True),
    Probe("algebra.graded_partial", "bvforge.algebra", "graded_partial", hot=True),
    Probe("linfty.extract", "bvforge.linfty", "extract_brackets"),
    Probe("linfty.check", "bvforge.linfty", "check_linfty"),
    Probe("linfty.identity", "bvforge.linfty", "identity_residual", hot=True),
    Probe("linfty.apply", "bvforge.linfty", "LInftyStructure.apply", hot=True,
          observe=_observe_apply),
)


class Tracer:
    """Collects spans and counts while installed; restores every binding on removal."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.records: list[tuple[int, int, int | None, str, float, float]] = []
        self.job = 0
        self._stack: list[list] = []  # [child seconds, record id] per open span
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin_job(self, job: int) -> None:
        """Start a new job: clear the aggregates, keep the span records."""
        self.job = job
        self.calls.clear()
        self.counts.clear()
        self.total_s.clear()
        self.self_s.clear()

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None,
             hot: bool = False):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        start = perf_counter()
        record_id = None
        if not hot:
            record_id = self._next_id
            self._next_id += 1
        frame = [0.0, record_id]
        self._stack.append(frame)
        self._active[name] += 1
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._stack.pop()
            self._active[name] -= 1
            end = perf_counter()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
            if not self._active[name]:
                self.total_s[name] += duration
            if self._stack:
                self._stack[-1][0] += duration
            if record_id is not None:
                parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
                self.records.append((self.job, record_id, parent, name, start, end))

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        call, counts, name, hot, observe = self.call, self.counts, probe.span, probe.hot, probe.observe

        def traced(*args, **kwargs):
            result = call(name, fn, args, kwargs, hot)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------- patching

    def install(self) -> None:
        """Replace every binding of every probed function by its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = [importlib.import_module(probe.module) for probe in self.probes]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bvforge" or name.startswith("bvforge.")]
        for probe, home in zip(self.probes, homes):
            if "." in probe.attr:
                cls_name, method = probe.attr.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, method, self._wrap(probe, vars(owner)[method]))
                continue
            original = getattr(home, probe.attr)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every original binding, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
