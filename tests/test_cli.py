"""Command line driver: dispatch, reports, exit statuses, determinism."""

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

from bvforge.cli import main, run_command

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


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


ALL_COMMANDS = [
    ["el", fx("scalar.bv"), "--field", "1"],
    ["divergence", fx("divergence.bv")],
    ["noether", fx("so3_full.bv")],
    ["bracket", fx("so3_ghost.bv")],
    ["delta", fx("so3_ghost.bv")],
    ["build", fx("so3_ghost.bv")],
    ["solve", fx("open_algebra.bv"), "-K", "3"],
    ["residual", fx("so3_ghost.bv")],
    ["qme", fx("so3_ghost.bv")],
    ["extract", fx("so3_full.bv")],
    ["check-linfty", fx("so3_full.bv"), "-n", "3"],
    ["mc", fx("rotation.bv")],
]


# one sha256 per fixture over every command in both formats, recorded
# before the Monomial record was retired: each (command, format, exit
# status, output) enters the digest NUL-separated, in COMMANDS order
SURFACE_DIGESTS = {
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
