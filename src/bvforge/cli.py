"""Command line driver.

``bvforge <command> <model.bv> [flags]`` parses a model document, runs
one named operation, and emits a deterministic report.  Exit status 0
means every check in the report passed (computations count as passing),
1 means at least one check failed, and 2 means the input or the model
was rejected before any check could run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from copy import copy
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from pathlib import Path

from .algebra import LocalFunction
from .bracket import JetModelUnsupported, antibracket, bv_laplacian
from .expr import format_generator, format_local_function, format_signed_sum
from .jet import MODEL_TABLES, ModelSpec, check_field_label, check_jet_order, check_noether, euler_lagrange
from .linfty import Element, LInftyStructure, check_linfty, extract_brackets, mc_residual
from .master import (BVAction, build_stage_action, default_stage, master_residual,
                     quantum_master_check, solve_master)
from .modelfile import ModelDocument, parse_document, print_model

__all__ = ["main", "run_command"]

DEFAULT_MAX_ANTIFIELD_NUMBER = 3


# ------------------------------------------------------------- reports

@dataclass
class Report:
    """Everything a command produced, ready for either output format."""

    command: str
    digest: str
    bounds: tuple[int, int]
    is_check: bool
    results: list[tuple[str, str]] = dataclass_field(default_factory=list)
    residuals: list[tuple[str, str]] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.residuals if self.is_check else True

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            payload = {
                "command": self.command,
                "model": self.digest,
                "bounds": {"jet": self.bounds[0], "deg": self.bounds[1]},
                "results": {label: value for label, value in self.results},
                "residuals": {label: value for label, value in self.residuals},
                "pass": self.passed,
            }
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = []
        for label, value in self.results:
            lines.append(f"{label} = {value}" if label else value)
        for label, value in self.residuals:
            lines.append(f"residual[{label}] = {value}")
        if self.is_check:
            lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _format_element(e: Element) -> str:
    return format_signed_sum((c, b.name) for b, c in e.items())


def _digest(doc: ModelDocument) -> str:
    canonical = print_model(doc.spec, doc.deformation)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ plumbing

def _model_jet_order(m: ModelSpec) -> int:
    """The highest jet order the model data uses, as a document's bounds check it."""
    orders = [m.lagrangian.max_jet_order()]
    for table in MODEL_TABLES:
        for key, f in (getattr(m, table.attr) or {}).items():
            orders += (f.max_jet_order(), len(key[-1]) if table.jet else 0)
    return max(orders)


def _apply_bounds(m: ModelSpec, text: str | None) -> ModelSpec:
    if text is None:
        return m
    overrides: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        key, _, value = piece.partition("=")
        if key not in ("jet", "deg") or not (value.isascii() and value.isdigit()):
            raise ValueError(
                f"bad bounds {text!r} (expected jet=<int>,deg=<int>)")
        if key in overrides:
            raise ValueError(f"bad bounds {text!r} (duplicate bound {key!r})")
        overrides[key] = int(value)
    if "jet" in overrides:
        check_jet_order(_model_jet_order(m), overrides["jet"])
    # the parser checked every entry; new bounds need only the jet-order check above
    m = copy(m)
    m.max_jet_order = overrides.get("jet", m.max_jet_order)
    m.max_poly_degree = overrides.get("deg", m.max_poly_degree)
    return m


def _solved_action(m: ModelSpec, K: int | None) -> BVAction:
    final, _records = solve_master(m, DEFAULT_MAX_ANTIFIELD_NUMBER if K is None else K)
    return final


def _finite_action(m: ModelSpec, K: int | None, refusal: str) -> BVAction:
    """The solved action, for a command that takes finite models only.

    A jet model whose gauge identities hold is refused with ``refusal``
    before any lifting.  When they fail, ``solve_master`` runs and raises
    its own precondition error, which comes first.
    """
    if m.spatial_dim and check_noether(m).all_pass:
        raise JetModelUnsupported(refusal)
    return _solved_action(m, K)


def _extracted(m: ModelSpec, K: int | None, n_max: int) -> LInftyStructure:
    # extract_brackets names a bad arity before a jet model; that order keeps the solve first
    S = (_finite_action(m, K, "extraction needs a finite model") if n_max >= 1
         else _solved_action(m, K))
    return extract_brackets(S, n_max)


def _theta_elements(L: LInftyStructure, deformation: dict[int, LocalFunction]) -> dict[int, Element]:
    by_name = {b.name: b for b in L.basis}
    theta: dict[int, Element] = {}
    for power, f in deformation.items():
        acc = Element.zero()
        for factors, c in f.sorted_terms():
            name = format_generator(factors[0][0])
            slot = by_name.get(name)
            if slot is None:
                raise ValueError(
                    f"deformation entry t^{power} uses {name}, which is not"
                    " part of the extracted complex")
            acc = acc + Element.from_basis(slot, c)
        theta[power] = acc
    return theta


# ------------------------------------------------------------- commands

def _cmd_el(doc: ModelDocument, args, report: Report) -> None:
    m = doc.spec
    if args.field is not None:
        check_field_label(args.field, m.fields)
        report.results.append(
            ("", format_local_function(euler_lagrange(m.lagrangian, args.field))))
        return
    for a in m.fields:
        report.results.append(
            (f"E[{a}]", format_local_function(euler_lagrange(m.lagrangian, a))))


def _cmd_divergence(doc: ModelDocument, args, report: Report) -> None:
    for a in doc.spec.fields:
        e = euler_lagrange(doc.spec.lagrangian, a)
        if not e.is_zero:
            report.residuals.append((f"E[{a}]", format_local_function(e)))


def _cmd_noether(doc: ModelDocument, args, report: Report) -> None:
    noether = check_noether(doc.spec)
    for alpha in doc.spec.gauge_indices:
        residual = noether.per_identity_residual[alpha]
        if not residual.is_zero:
            report.residuals.append((alpha, format_local_function(residual)))


def _cmd_bracket(doc: ModelDocument, args, report: Report) -> None:
    S = _solved_action(doc.spec, args.max_antifield_number)
    value = antibracket(S.total, S.total, doc.spec.spatial_dim)
    report.results.append(("(S, S)", format_local_function(value)))


def _cmd_delta(doc: ModelDocument, args, report: Report) -> None:
    S = _solved_action(doc.spec, args.max_antifield_number)
    report.results.append(("delta(S)", format_local_function(bv_laplacian(S.total))))


def _cmd_build(doc: ModelDocument, args, report: Report) -> None:
    m = doc.spec
    stage = default_stage(m) if args.max_antifield_number is None else args.max_antifield_number
    S = build_stage_action(m, stage)
    for k in sorted(S.by_antifield_number):
        report.results.append(
            (f"S[{k}]", format_local_function(S.stratum(k))))


def _cmd_solve(doc: ModelDocument, args, report: Report) -> None:
    K = DEFAULT_MAX_ANTIFIELD_NUMBER if args.max_antifield_number is None else args.max_antifield_number
    final, records = solve_master(doc.spec, K)
    for record in records:
        if record.lifted:
            report.results.append(
                (f"lift[{record.antifield_number}]",
                 format_local_function(record.correction)))
        else:
            report.residuals.append(
                (f"obstruction[{record.antifield_number}]",
                 format_local_function(record.obstruction)))
    for k in sorted(final.residual_report or {}):
        report.residuals.append(
            (f"stratum {k}", format_local_function(final.residual_report[k])))


def _cmd_residual(doc: ModelDocument, args, report: Report) -> None:
    S = build_stage_action(doc.spec, default_stage(doc.spec))
    strata = master_residual(S)
    K = args.max_antifield_number
    for k in sorted(strata):
        if K is not None and k > K:
            continue
        report.residuals.append((f"stratum {k}", format_local_function(strata[k])))


def _cmd_qme(doc: ModelDocument, args, report: Report) -> None:
    S = _finite_action(doc.spec, args.max_antifield_number, "the quantum check needs a finite model")
    outcome = quantum_master_check(S)
    report.results.append(("(S, S)", format_local_function(outcome.classical)))
    report.results.append(("delta(S)", format_local_function(outcome.delta)))
    if not outcome.quantum_residual.is_zero:
        report.residuals.append(
            ("quantum", format_local_function(outcome.quantum_residual)))


def _cmd_extract(doc: ModelDocument, args, report: Report) -> None:
    n_max = 2 if args.arity is None else args.arity
    L = _extracted(doc.spec, args.max_antifield_number, n_max)
    for b in L.basis:
        report.results.append((f"degree[{b.name}]", str(b.degree)))
    index = {b: i for i, b in enumerate(L.basis)}
    for n in sorted(L.tensors):
        table = L.tensors[n]
        for key in sorted(table, key=lambda tup: [index[b] for b in tup]):
            names = ", ".join(b.name for b in key)
            label = f"d({names})" if n == 1 else f"l{n}({names})"
            report.results.append((label, _format_element(table[key])))


def _cmd_check_linfty(doc: ModelDocument, args, report: Report) -> None:
    n_max = 3 if args.arity is None else args.arity
    L = _extracted(doc.spec, args.max_antifield_number, n_max)
    outcome = check_linfty(L, n_max)
    report.results.append(("identities checked", str(outcome.checked)))
    for n, key, residual in outcome.failures:
        names = ", ".join(b.name for b in key)
        report.residuals.append(
            (f"identity[n={n}; {names}]", _format_element(residual)))


def _cmd_mc(doc: ModelDocument, args, report: Report) -> None:
    if not doc.deformation:
        raise ValueError("the document has no deformation section")
    order = max(doc.deformation)
    n_max = max(2, order) if args.arity is None else args.arity
    L = _extracted(doc.spec, args.max_antifield_number, n_max)
    theta = _theta_elements(L, doc.deformation)
    residuals = mc_residual(L, theta, order)
    for power in sorted(residuals):
        value = residuals[power]
        if value.is_zero:
            report.results.append((f"order {power}", "0"))
        else:
            report.residuals.append((f"order {power}", _format_element(value)))


# name -> (handler, whether the report is a check that can fail)
_COMMANDS = {
    "el": (_cmd_el, False),
    "divergence": (_cmd_divergence, True),
    "noether": (_cmd_noether, True),
    "bracket": (_cmd_bracket, False),
    "delta": (_cmd_delta, False),
    "build": (_cmd_build, False),
    "solve": (_cmd_solve, True),
    "residual": (_cmd_residual, True),
    "qme": (_cmd_qme, True),
    "extract": (_cmd_extract, False),
    "check-linfty": (_cmd_check_linfty, True),
    "mc": (_cmd_mc, True),
}


# ---------------------------------------------------------------- entry

@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first command, not at import, and then reused: parsing leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="bvforge",
        description="Exact antifield computations on small gauge models.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("model", help="path to a .bv model document")
        p.add_argument("-K", dest="max_antifield_number", type=int, default=None,
                       help="largest antifield number to solve or report")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--bounds", default=None, metavar="jet=<p>,deg=<d>",
                       help="override the ansatz bounds of the document")
        if name in ("extract", "check-linfty", "mc"):
            p.add_argument("-n", dest="arity", type=int, default=None,
                           help="largest bracket arity")
        if name == "el":
            p.add_argument("--field", default=None,
                           help="report a single field family")
    return parser


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run one command line; returns (exit status, report text).

    The cyclic collector is paused while the command runs: every monomial
    counts toward a collection, and collections reclaim next to nothing.
    """
    args = _build_parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.max_antifield_number is not None and args.max_antifield_number < 0:
            raise ValueError(f"-K must be at least 0, got {args.max_antifield_number}")
        text = Path(args.model).read_text(encoding="utf-8")
        doc = parse_document(text)
        m = _apply_bounds(doc.spec, args.bounds)
        doc = ModelDocument(spec=m, deformation=doc.deformation)
        handler, is_check = _COMMANDS[args.command]
        report = Report(args.command, _digest(doc), (m.max_jet_order, m.max_poly_degree), is_check)
        handler(doc, args, report)
    except (OSError, ValueError) as err:
        return 2, f"error: {err}\n"
    finally:
        if was_enabled:
            gc.enable()
    return (0 if report.passed else 1), report.render(args.format)


def main(argv: list[str] | None = None) -> int:
    status, output = run_command(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if status == 2 else sys.stdout
    stream.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
