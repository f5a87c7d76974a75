"""Command line driver: dispatch, reports, exit statuses, determinism."""

import argparse
import ast
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from bvforge import cli
from bvforge.algebra import GeneratorKind, field, gen
from bvforge.cli import main, run_command
from bvforge.expr import MAX_TERM_PRODUCTS, TokenStream
from bvforge.jet import ModelSpec
from bvforge.linsolve import unknown
from harnesses import bench_models
from shared import ALL_COMMANDS, FIXTURES, fx


# ------------------------------------------------------------- commands

def test_el_single_field_prints_the_bare_expression():
    status, out = run_command(["el", fx("scalar.bv"), "--field", "1"])
    assert status == 0
    assert out == "-u[1; 1 1]\n"


def test_el_all_fields_labels_each_line():
    status, out = run_command(["el", fx("scalar.bv")])
    assert status == 0
    assert out == "E[1] = -u[1; 1 1]\n"


def test_el_unknown_field_is_an_error():
    status, out = run_command(["el", fx("scalar.bv"), "--field", "9"])
    assert status == 2
    assert "unknown field family" in out


def test_divergence_detects_total_derivatives():
    status, out = run_command(["divergence", fx("divergence.bv")])
    assert (status, out) == (0, "PASS\n")
    status, out = run_command(["divergence", fx("scalar.bv")])
    assert status == 1
    assert out == "residual[E[1]] = -u[1; 1 1]\nFAIL\n"


def test_noether_failure_reports_residual_under_the_gauge_key():
    status, out = run_command(["noether", fx("scalar_gauge.bv")])
    assert status == 1
    assert "residual[e] = -u[1; 1 1]" in out
    assert out.endswith("FAIL\n")
    status, out = run_command(
        ["noether", fx("scalar_gauge.bv"), "--format", "structured"])
    payload = json.loads(out)
    assert payload["residuals"]["e"] == "-u[1; 1 1]"
    assert payload["pass"] is False


def test_noether_passes_on_the_rotation_model():
    assert run_command(["noether", fx("so3_full.bv")]) == (0, "PASS\n")


def test_noether_passes_on_su2_yang_mills_on_the_plane():
    # the derivative terms of the gauge operator enter through its adjoint
    assert run_command(["noether", fx("su2_plane.bv")]) == (0, "PASS\n")


def test_solve_rotation_ghost_model_is_exact():
    status, out = run_command(["solve", fx("so3_ghost.bv"), "-K", "3"])
    assert (status, out) == (0, "PASS\n")


def test_solve_open_algebra_invents_the_quadratic_antifield_term():
    status, out = run_command(["solve", fx("open_algebra.bv"), "-K", "3"])
    assert status == 0
    assert "lift[1] = -ustar[2]*ustar[3]*C[1]*C[2]" in out
    assert out.endswith("PASS\n")


def test_solve_requires_the_gauge_identities():
    status, out = run_command(["solve", fx("scalar_gauge.bv")])
    assert status == 2
    assert "gauge identities" in out


def test_negative_antifield_bound_is_refused():
    # without the refusal, -K -1 skipped every stratum and turned FAIL into PASS
    assert run_command(["solve", fx("open_algebra.bv"), "--bounds", "deg=2"])[0] == 1
    for command in ("solve", "residual"):
        assert run_command([command, fx("open_algebra.bv"), "--bounds", "deg=2", "-K", "-1"]) \
            == (2, "error: -K must be at least 0, got -1\n")
    assert run_command(["residual", fx("open_algebra.bv"), "-K", "0"])[0] == 0


def test_residual_reports_the_unlifted_staged_stratum():
    status, out = run_command(["residual", fx("open_algebra.bv")])
    assert status == 1
    assert out == "residual[stratum 1] = -2*u[3]*ustar[2]*C[1]*C[2]\nFAIL\n"
    assert run_command(["residual", fx("so3_ghost.bv")]) == (0, "PASS\n")


def test_build_prints_the_staged_strata():
    status, out = run_command(["build", fx("so3_ghost.bv")])
    assert status == 0
    assert out == ("S[2] = C[1]*C[2]*Cstar[3] - C[1]*C[3]*Cstar[2]"
                   " + C[2]*C[3]*Cstar[1]\n")


def test_bracket_delta_and_qme_vanish_on_the_ghost_model():
    assert run_command(["bracket", fx("so3_ghost.bv")]) == (0, "(S, S) = 0\n")
    assert run_command(["delta", fx("so3_ghost.bv")]) == (0, "delta(S) = 0\n")
    status, out = run_command(["qme", fx("so3_ghost.bv")])
    assert status == 0
    assert out == "(S, S) = 0\ndelta(S) = 0\nPASS\n"


def test_qme_fails_on_a_lie_algebra_that_is_not_unimodular():
    # [e1, e2] = e2: Jacobi holds, so (S, S) = 0, but tr ad e1 = 1 gives delta(S) = C[1]
    assert run_command(["qme", fx("aff1.bv")]) == (
        1, "(S, S) = 0\ndelta(S) = C[1]\nresidual[quantum] = -C[1]\nFAIL\n")
    assert run_command(["solve", fx("aff1.bv")]) == (0, "PASS\n")


def test_extract_reads_the_structure_constants():
    status, out = run_command(["extract", fx("so3_ghost.bv"), "-n", "2"])
    assert status == 0
    assert "l2(C[1], C[2]) = C[3]" in out
    assert "d(" not in out


def test_extract_full_model_shows_differential_and_field_rotation():
    status, out = run_command(["extract", fx("so3_full.bv")])
    assert status == 0
    assert "d(u[1]) = ustar[1]" in out
    assert "l2(u[1], C[2]) = -u[3]" in out


def test_check_linfty_on_the_all_zero_structure():
    assert run_command(["check-linfty", fx("zero.bv"), "-n", "4"]) == \
        (0, "identities checked = 0\nPASS\n")


def test_check_linfty_counts_every_basis_tuple():
    status, out = run_command(["check-linfty", fx("so3_full.bv"), "-n", "3"])
    assert status == 0
    assert out == "identities checked = 454\nPASS\n"


def test_check_linfty_on_gl3_through_arity_four():
    assert run_command(["check-linfty", fx("gl3.bv"), "-n", "4"]) == \
        (0, "identities checked = 7314\nPASS\n")


def test_check_linfty_on_gl3_through_arity_five():
    assert run_command(["check-linfty", fx("gl3.bv"), "-n", "5"]) == \
        (0, "identities checked = 33648\nPASS\n")


def test_check_linfty_on_gl3_structured_reports_a_pass():
    status, out = run_command(
        ["check-linfty", fx("gl3.bv"), "-n", "4", "--format", "structured"])
    assert status == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["residuals"] == {}
    assert payload["results"] == {"identities checked": "7314"}


def test_check_linfty_refuses_an_oversized_sweep():
    status, out = run_command(["check-linfty", fx("gl3.bv"), "-n", "8"])
    assert status == 2
    assert out.startswith("error: ")
    assert "1562274 identity tuples" in out


@pytest.mark.parametrize("model, bounds, count", [
    ("open_algebra.bv", "deg=30", 19082),
    ("su2_plane.bv", "jet=4,deg=6", 23497184700),
])
def test_solve_refuses_an_oversized_ansatz_at_once(model, bounds, count):
    start = time.monotonic()
    status, out = run_command(["solve", fx(model), "--bounds", bounds])
    assert time.monotonic() - start < 1.0
    assert status == 2
    assert out.startswith("error: ")
    assert f"needs {count} candidate monomials" in out


def test_mc_flat_directions_pass():
    status, out = run_command(["mc", fx("rotation.bv")])
    assert status == 0
    assert out == "order 1 = 0\norder 2 = 0\nPASS\n"


def test_mc_reports_the_unclosed_direction():
    status, out = run_command(["mc", fx("mc_fail.bv")])
    assert status == 1
    assert out == "residual[order 1] = ustar[1]\nFAIL\n"


def test_mc_needs_a_deformation_section():
    status, out = run_command(["mc", fx("zero.bv")])
    assert status == 2
    assert "no deformation section" in out


# --------------------------------------------------------------- errors

def test_missing_file_is_an_error():
    status, out = run_command(["el", fx("missing.bv")])
    assert status == 2
    assert "error:" in out


def test_parse_errors_carry_positions(tmp_path):
    bad = tmp_path / "bad.bv"
    bad.write_text("dimension 0\nfields 1\nlagrangian u[1] +\n")
    status, out = run_command(["el", str(bad)])
    assert status == 2
    assert "line 3" in out


def test_deep_nesting_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.bv"
    deep.write_text("dimension 0\nfields 1\nlagrangian " + "(" * 3000 + "u[1]" + ")" * 3000 + "\n")
    status, out = run_command(["el", str(deep)])
    assert status == 2
    assert out.startswith("error: line 3, column ")


def test_chained_products_of_powers_are_refused_at_once(tmp_path):
    # each power is within MAX_POWER_TERMS, but their product would have
    # 53130 terms from millions of term products; whatever the deg bound
    sextet = "(u[1]+u[2]+u[3]+u[4]+u[5]+u[6])^5"
    for deg in (40, 3):
        path = tmp_path / f"h_prod_{deg}.bv"
        path.write_text(f"dimension 0\nfields 1 2 3 4 5 6\nbounds jet=0 deg={deg}\n"
                        f"lagrangian {'*'.join([sextet] * 4)}\n")
        start = time.monotonic()
        status, out = run_command(["el", str(path)])
        assert time.monotonic() - start < 1.0
        assert (status, out) == (
            2, "error: line 4, column 45: the document needs more than 50000 term products\n")


def test_the_term_product_budget_spans_the_whole_document(tmp_path):
    # one entry takes about 33.5k term products, within the budget; the
    # second crosses the budget of the document at its '*'
    sextet = "(u[1]+u[2]+u[3]+u[4]+u[5]+u[6])"
    entries = [f"  r[{a}, {alpha}] = {sextet}^4*{sextet}^5"
               for a in range(1, 7) for alpha in range(1, 5)]
    head = "dimension 0\nfields 1 2 3 4 5 6\ngauge 1 2 3 4\nbounds jet=0 deg=9\ngenerators\n"
    path = tmp_path / "entries.bv"
    path.write_text(head + "\n".join(entries) + "\n")
    start = time.monotonic()
    status, out = run_command(["el", str(path)])
    assert time.monotonic() - start < 1.0
    column = entries[1].index("*") + 1
    assert (status, out) == (
        2, f"error: line 7, column {column}: the document needs more than 50000 term products\n")
    path.write_text(head + entries[0] + "\n")
    assert run_command(["el", str(path)])[0] == 0


_SEXTET = "(" + "+".join(f"u[{a}]" for a in range(1, 7)) + ")"


def _random_expression(rng: random.Random, depth: int, atoms: tuple[str, ...]) -> str:
    """Nested sums, products and powers; now and then an atom the field sector refuses."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(("C[1]", "ustar[2]", "x[2]", "u[1; 2]") if rng.random() < 0.03 else atoms)
    parts = [_random_expression(rng, depth - 1, atoms) for _ in range(rng.randint(2, 4))]
    if roll < 0.6:
        return "(" + rng.choice((" + ", " - ")).join(parts) + ")"
    if roll < 0.85:
        return "*".join(parts)
    return f"({parts[0]})^{rng.randint(0, 8)}"


def _random_document(rng: random.Random) -> str:
    dim = rng.randint(0, 1)
    atoms = ("u[1]", "u[2]", "u[3]", "2", "3/2", "1/3", "0") + dim * ("x[1]", "u[1; 1]", "u[2; 1 1]", "u[3; 1]")

    def value(depth: int) -> str:
        # a product of two powers of a sextet: cheap, costly but accepted, or over the budget
        if rng.random() < 0.06:
            k = rng.choice((2, 3, 6))
            return f"{_SEXTET}^{k}*{_SEXTET}^{k}"
        return _random_expression(rng, depth, atoms)

    lines = [f"dimension {dim}", "fields 1 2 3 4 5 6", "gauge 1",
             f"bounds jet={rng.randint(1, 2)} deg={rng.randint(0, 6)}", "lagrangian " + value(3)]
    if rng.random() < 0.5:
        lines += ["generators", "  r[1, 1] = " + value(2)]
        if dim:
            lines.append("  r[2, 1; 1] = " + value(2))
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.1:  # a syntax slip
        i = rng.randrange(len(text))
        text = text[:i] + text[i + 1:]
    return text


def test_seeded_documents_end_in_a_status_within_the_budget(tmp_path, monkeypatch):
    spent = [0]
    multiply = TokenStream.multiply

    def counting(self, left, right, op):
        out = multiply(self, left, right, op)
        spent[0] += len(left.terms()) * len(right.terms())
        return out

    monkeypatch.setattr(TokenStream, "multiply", counting)
    rng = random.Random(20)
    path = tmp_path / "seeded.bv"
    outcomes, peak = Counter(), 0
    for _ in range(300):
        path.write_text(_random_document(rng))
        for command in ("el", "build"):
            spent[0] = 0
            start = time.monotonic()
            status, out = run_command([command, str(path)])
            assert time.monotonic() - start < 2.0
            assert status in (0, 1, 2) and "Traceback" not in out
            assert spent[0] <= MAX_TERM_PRODUCTS
            peak = max(peak, spent[0])
            outcomes[status, "term products" in out] += 1
    # the documents reach every outcome: reports, refusals, and the budget
    assert outcomes[0, False] and outcomes[2, False] and outcomes[2, True]
    assert peak > 1000


def test_unbounded_exponents_are_refused(tmp_path):
    power = tmp_path / "power.bv"
    power.write_text("dimension 0\nfields 1\nlagrangian u[1]^100000000\n")
    assert run_command(["el", str(power)]) == \
        (2, "error: line 3, column 17: exponent 100000000 exceeds 100\n")
    order = tmp_path / "order.bv"
    order.write_text(Path(fx("rotation.bv")).read_text() + "  t^100000 = u[1]\n")
    assert run_command(["mc", str(order)]) == \
        (2, "error: line 22, column 5: deformation power 100000 exceeds 12\n")


def test_jet_models_cannot_be_extracted():
    status, out = run_command(["extract", fx("scalar.bv")])
    assert status == 2
    assert "finite model" in out
    # failed gauge identities and a bad arity are named before the jet model
    noether = "error: the gauge identities do not hold; fix the model first\n"
    for command in ("extract", "check-linfty", "qme"):
        assert run_command([command, fx("scalar_gauge.bv")]) == (2, noether)
    assert run_command(["extract", fx("su2_plane.bv"), "-n", "0"]) == \
        (2, "error: n_max must be at least 1\n")


def test_finite_only_commands_refuse_jet_models_before_lifting(monkeypatch, tmp_path):
    def no_lift(m, K):
        raise AssertionError("the master equation was solved")

    monkeypatch.setattr("bvforge.cli.solve_master", no_lift)
    deformed = tmp_path / "su2_deformed.bv"
    deformed.write_text(Path(fx("su2_plane.bv")).read_text() + "deformation\n  t^1 = C[1]\n")
    bounds = ["--bounds", "jet=1,deg=3"]
    extraction = "error: extraction needs a finite model\n"
    assert run_command(["extract", fx("su2_plane.bv"), *bounds]) == (2, extraction)
    assert run_command(["check-linfty", fx("su2_plane.bv"), *bounds]) == (2, extraction)
    assert run_command(["mc", str(deformed), *bounds]) == (2, extraction)
    assert run_command(["qme", fx("su2_plane.bv"), *bounds]) == \
        (2, "error: the quantum check needs a finite model\n")


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        run_command(["frobnicate", fx("scalar.bv")])
    assert err.value.code == 2


def test_many_commands_build_the_parser_once(monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "bvforge":
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    for _ in range(5):
        assert run_command(["el", fx("scalar.bv")]) == (0, "E[1] = -u[1; 1 1]\n")
        assert run_command(["divergence", fx("divergence.bv")]) == (0, "PASS\n")
    assert len(built) == 1


def test_the_shared_parser_keeps_its_errors(capsys):
    # the parser has served other commands before it refuses these
    assert run_command(["el", fx("scalar.bv")])[0] == 0
    with pytest.raises(SystemExit) as shared:
        run_command(["frobnicate", fx("scalar.bv")])
    shared_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        cli._build_parser.__wrapped__().parse_args(["frobnicate", fx("scalar.bv")])
    assert (shared.value.code, fresh.value.code) == (2, 2)
    assert shared_err == capsys.readouterr().err
    assert "argument command: invalid choice: 'frobnicate'" in shared_err
    for command in ("solve", "residual", "solve"):
        assert run_command([command, fx("open_algebra.bv"), "-K", "-1"]) \
            == (2, "error: -K must be at least 0, got -1\n")


# ------------------------------------------------------------ mutations

COMMANDS = ["el", "divergence", "noether", "bracket", "delta", "build", "solve",
            "residual", "qme", "extract", "check-linfty", "mc"]
PUNCTUATION = "[](),;+-*^/=#"
ODD_LITERALS = ["0", "00", "-1", "1/0", "99999999999999999999", "2^101", "t^0",
                "ustar", "Cstar", "x", "nu", "C[1; 1]", "\u00e9", "\t", ""]


def _mutate(text: str, rng: random.Random) -> str:
    """One seeded damage: a truncation, two swapped tokens, punctuation
    inserted or written over a character, or a token replaced by an odd literal."""
    kind = rng.randrange(5)
    if kind == 0:
        return text[:rng.randrange(len(text) + 1)]
    tokens = text.split(" ")
    pos = rng.randrange(len(text) + 1)
    if kind == 1:
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 2:
        return text[:pos] + rng.choice(PUNCTUATION) + text[pos:]
    elif kind == 3:
        return text[:pos] + rng.choice(PUNCTUATION) + text[pos + 1:]
    else:
        tokens[rng.randrange(len(tokens))] = rng.choice(ODD_LITERALS)
    return " ".join(tokens)


def test_mutated_documents_end_with_a_status_not_a_traceback(tmp_path):
    rng = random.Random(20261018)
    fixtures = sorted(FIXTURES.glob("*.bv"))
    mutant = tmp_path / "mutant.bv"
    statuses = Counter()
    for case in range(200):
        text = fixtures[case % len(fixtures)].read_text(encoding="utf-8")
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        mutant.write_text(text, encoding="utf-8")
        argv = [COMMANDS[case % len(COMMANDS)], str(mutant),
                "--format", rng.choice(("text", "structured"))]
        status, _ = run_command(argv)
        assert status in (0, 1, 2), (argv, text)
        statuses[status] += 1
    # the corpus reaches every outcome, not only parse errors
    assert set(statuses) == {0, 1, 2}, statuses


# -------------------------------------------------------------- formats

def test_structured_reports_have_the_contract_fields():
    status, out = run_command(
        ["solve", fx("open_algebra.bv"), "--format", "structured"])
    assert status == 0
    payload = json.loads(out)
    assert sorted(payload) == ["bounds", "command", "model", "pass",
                               "residuals", "results"]
    assert payload["command"] == "solve"
    assert payload["pass"] is True
    assert payload["residuals"] == {}
    assert payload["results"]["lift[1]"] == "-ustar[2]*ustar[3]*C[1]*C[2]"
    assert len(payload["model"]) == 64
    assert payload["bounds"] == {"jet": 3, "deg": 4}


def test_bounds_override_shows_in_the_report():
    status, out = run_command(
        ["el", fx("scalar.bv"), "--bounds", "jet=2,deg=6",
         "--format", "structured"])
    assert status == 0
    assert json.loads(out)["bounds"] == {"jet": 2, "deg": 6}


def test_bad_bounds_flag_is_an_error():
    status, out = run_command(["el", fx("scalar.bv"), "--bounds", "jet=x"])
    assert status == 2


def test_bounds_flag_takes_ascii_digits_and_each_key_once():
    # str.isdigit accepts '\u00b2', which int() then refuses
    assert run_command(["el", fx("scalar.bv"), "--bounds", "deg=\u00b2"]) == \
        (2, "error: bad bounds 'deg=\u00b2' (expected jet=<int>,deg=<int>)\n")
    # a document's own bounds line refuses a repeated key too
    assert run_command(["el", fx("scalar.bv"), "--bounds", "jet=1,jet=3"]) == \
        (2, "error: bad bounds 'jet=1,jet=3' (duplicate bound 'jet')\n")
    assert run_command(["el", fx("scalar.bv"), "--bounds", "deg=2,jet=2,deg=3"])[0] == 2


def test_bounds_flag_cannot_drop_below_the_models_jet_order(tmp_path):
    # the same refusal as a document whose own bounds line is too small
    assert run_command(["noether", fx("su2_plane.bv"), "--bounds", "jet=0,deg=3"]) \
        == (2, "error: jet order 1 exceeds bound 0\n")
    assert run_command(["noether", fx("su2_plane.bv"), "--bounds", "jet=1,deg=3"]) \
        == (0, "PASS\n")
    # a gauge multi-index and a gauge-coefficient value carry jet orders too
    shift = tmp_path / "shift.bv"
    shift.write_text("dimension 1\nfields 1 2\ngauge 1\nlagrangian u[1]^2\n"
                     "generators\n  r[1, 1; 1 1] = 1\n  r[2, 1] = u[2; 1]\n")
    assert run_command(["noether", str(shift), "--bounds", "jet=1"]) \
        == (2, "error: jet order 2 exceeds bound 1\n")
    shift.write_text("dimension 1\nfields 1 2\ngauge 1\nlagrangian u[1]^2\n"
                     "generators\n  r[2, 1] = u[2; 1]\n")
    assert run_command(["el", str(shift), "--bounds", "jet=0"]) \
        == (2, "error: jet order 1 exceeds bound 0\n")
    assert run_command(["el", str(shift), "--bounds", "deg=0"])[0] == 0
    # and so does every value of the structure and closure tables
    for table in ("structure\n  c[1, 1, 2] = u[2; 1]\n", "closure\n  nu[1, 2, 1, 2] = u[2; 1]\n"):
        shift.write_text("dimension 1\nfields 1 2\ngauge 1 2\nlagrangian u[1]^2\n" + table)
        assert run_command(["el", str(shift), "--bounds", "jet=0"]) \
            == (2, "error: jet order 1 exceeds bound 0\n")


# one sha256 per fixture over every command in both formats, recorded
# before the Monomial record was retired: each (command, format, exit
# status, output) enters the digest NUL-separated, in COMMANDS order
SURFACE_DIGESTS = {
    "aff1.bv": "6075cc2f530ae27883c891ab4c1a7cce28de352ebfd4382b828068802b54f0e5",
    "divergence.bv": "9da9977e7009315a030f45513d082519741c3772a74b2a0e9f7bc2cb22afe03b",
    "gl3.bv": "7379ee0dee480dfa607396d3963ea0160c4fff48ad0f51318d526964abf6b69f",
    "mc_fail.bv": "b7a2b753646df0e0908bdd313f9171c849b1107aaa4ec0c048e2e974f324b9f8",
    "open_algebra.bv": "552b1677a55eb4fa24ef15b851e55009bfca206d2af47c125b25a19f8e9dd6a3",
    "rotation.bv": "f926adaa780a5044653c169677b42869b68f38a4bf471838c4aba27d3a4a7d0d",
    "scalar.bv": "c608285b56705ae2917a25882c797b70b97adf0fb9c502f6b0bf6de2b2ea9269",
    "scalar_gauge.bv": "b0d85af7f4269a3640f1633477a6d5fbaec9340db9f35ffd8358e3ee57bfeffd",
    "so3_full.bv": "b29835a6cdee4a04676bd0a4950632c98da59b18797d94a68721148308c686f0",
    "so3_ghost.bv": "4b74b1e6240ae47d56c428fdf726cb93f631078fe94e0aeb91072e980d986c4e",
    "su2_plane.bv": "ac1614e7d8e6a6aec43534549501dd2a6d1b22ccaf5cbff1c770eabc3a075a0f",
    "zero.bv": "7e55504410153471bfc098d5d48dbb7be5cb07393090be4bcc4a2d3a16b3a4ca",
}


def test_every_command_on_every_fixture_prints_its_pinned_bytes():
    fixtures = sorted(FIXTURES.glob("*.bv"))
    assert sorted(p.name for p in fixtures) == sorted(SURFACE_DIGESTS)
    for path in fixtures:
        digest = hashlib.sha256()
        for command in COMMANDS:
            for fmt in ("text", "structured"):
                status, out = run_command([command, str(path), "--format", fmt])
                digest.update(f"{command}\0{fmt}\0{status}\0{out}\0".encode("utf-8"))
        assert digest.hexdigest() == SURFACE_DIGESTS[path.name], path.name


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_reports_are_byte_identical_across_runs(fmt):
    for argv in ALL_COMMANDS:
        full = argv + ["--format", fmt]
        first = run_command(full)
        second = run_command(full)
        assert first == second


def test_bench_jobs_print_their_golden_reports(tmp_path):
    # the 96 seeded benchmark jobs print the bytes bench/golden.json records
    models = bench_models()
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text(
        encoding="utf-8"))["reports"]
    for workload in models.WORKLOADS:
        assert sorted(map(int, golden[workload])) == list(range(32))
        for seed in range(32):
            job = models.make_job(workload, seed)
            path = tmp_path / f"{workload}-{seed}.bv"
            path.write_text(job.model_text, encoding="utf-8")
            status, text = run_command(job.argv(str(path)))
            assert (status, text) == (0, job.expected_report), (workload, seed)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden[workload][str(seed)]


def test_no_unknown_coefficient_leaves_a_lift(monkeypatch, tmp_path):
    # the lift's unknowns a_j are base coordinates labelled #j; none of
    # them reaches a correction, an action, a record or a report
    solved = []
    solve_master = cli.solve_master

    def recording(m, K):
        solved.append(solve_master(m, K))
        return solved[-1]

    def unknowns(f):
        return {g for g in f.generators() if g.kind is GeneratorKind.BASE and not g.family.isdigit()}

    monkeypatch.setattr(cli, "solve_master", recording)
    reports = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        for argv in (["solve"], ["residual"], ["bracket"], ["solve", "--bounds", "deg=3"]):
            for fmt in ("text", "structured"):
                status, out = run_command([argv[0], str(path), *argv[1:], "--format", fmt])
                assert "#" not in out, (path.name, argv)
                reports += status != 2
    assert reports >= 60
    lifted = 0
    for final, records in solved:
        functions = [final.total, *final.by_antifield_number.values(),
                     *(final.residual_report or {}).values(), *(f for _, f in final.kt_sources)]
        for record in records:
            functions += [record.obstruction] + [record.correction] * (record.correction is not None)
            lifted += record.lifted
        assert not set().union(*map(unknowns, functions))
    assert lifted >= 6
    document = tmp_path / "unknown.bv"
    document.write_text("dimension 1\nfields 1\ngauge 1\nlagrangian x[#0]*u[1]^2\n", encoding="utf-8")
    assert run_command(["solve", str(document)]) == (
        2, "error: line 4, column 14: expected a family label, found 'end of input'\n")
    with pytest.raises(ValueError, match="^lagrangian: spatial directions start at 1, got #0$"):
        ModelSpec(1, ("1",), (), gen(unknown(0)) * gen(field("1")))


def test_main_writes_to_stdout_and_returns_status(capsys):
    status = main(["el", fx("scalar.bv"), "--field", "1"])
    assert status == 0
    assert capsys.readouterr().out == "-u[1; 1 1]\n"
    status = main(["solve", fx("scalar_gauge.bv")])
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_errors_do_not_depend_on_the_hash_seed(tmp_path):
    model = tmp_path / "undeclared.bv"
    model.write_text("dimension 1\nfields 1\nlagrangian u[7]*u[8]*u[9]*x[1]\n",
                     encoding="utf-8")
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cases = [
        (["delta", fx("su2_plane.bv")],
         "error: the Laplacian requires an unprolonged model; found u[11; 2]\n"),
        (["el", str(model)], "error: line 3, column 1: unknown field family '7'\n"),
    ]
    for argv, expected in cases:
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-m", "bvforge.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 2
            assert proc.stderr == expected
            assert "Generator(" not in proc.stderr


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bvforge.cli", "el", fx("scalar.bv"),
         "--field", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-u[1; 1 1]\n"



# ------------------------------------------------------------ collector

@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    seen = []
    parse = cli.parse_document

    def watching(text):
        seen.append(gc.isenabled())
        if len(seen) == 1:
            raise RuntimeError("an error no handler catches")
        return parse(text)

    monkeypatch.setattr(cli, "parse_document", watching)
    before = (gc.isenabled(), gc.get_threshold())
    try:
        (gc.enable if enabled else gc.disable)()
        state = (enabled, before[1])
        with pytest.raises(RuntimeError):
            run_command(["el", fx("scalar.bv")])
        assert (gc.isenabled(), gc.get_threshold()) == state
        for argv, status in [(["divergence", fx("divergence.bv")], 0),
                             (["divergence", fx("scalar.bv")], 1),
                             (["solve", fx("scalar_gauge.bv")], 2),
                             (["el", fx("missing.bv")], 2)]:
            assert run_command(argv)[0] == status
            assert (gc.isenabled(), gc.get_threshold()) == state
        with pytest.raises(SystemExit):
            run_command(["frobnicate", fx("scalar.bv")])
        assert (gc.isenabled(), gc.get_threshold()) == state
    finally:
        (gc.enable if before[0] else gc.disable)()
    # the collector is paused while the command runs
    assert seen == [False] * 4


def test_only_the_command_line_touches_the_collector():
    importers, used = set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "gc" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc":
                importers.add(path.name)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc":
                used.add(node.attr)
    assert importers == {"cli.py"}
    assert used == {"isenabled", "disable", "enable"}
