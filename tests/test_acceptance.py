"""End-to-end acceptance checks, one test per shipped guarantee.

Every assertion here is exact; no tolerances appear anywhere.  Randomized
corpora use fixed seeds so failures reproduce verbatim.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bvforge.algebra import (
    LocalFunction,
    antifield,
    antighost,
    base,
    decompose_by_antifield_number,
    field,
    gen,
    ghost,
    graded_partial,
    term_bidegree,
)
from bvforge.bracket import antibracket, bv_laplacian
from bvforge.cli import run_command
from bvforge.expr import format_local_function, parse_expression
from bvforge.jet import (STRUCTURE_FUNCTIONS, ModelNames, all_multi_indices, check_noether,
                         euler_lagrange, total_derivative)
from bvforge.linfty import (
    BasisElement,
    Element,
    LInftyStructure,
    check_linfty,
    extract_brackets,
    identity_residual,
)
from bvforge.master import (
    build_stage_action,
    kt_differential,
    master_residual,
    quantum_master_check,
    solve_master,
)
from bvforge.modelfile import parse_document

from harnesses import bv_identity_harness, gerstenhaber_harness
from shared import (ALL_COMMANDS, EPS, FIXTURES, GRADED_POOL, curl_model, ghost_so3_model,
                    non_jacobi_ghost_model, open_algebra_model, random_local_function, random_monomial,
                    scalar_model)

# ---------------------------------------------------------------- corpora

POINT_POOL = [
    field("1"), antifield("1"),
    field("2"), antifield("2"),
    ghost("1"), antighost("1"),
]


def random_homogeneous(rng, parity, pool=GRADED_POOL):
    """Up to six terms of at most four generators, all sharing one parity."""
    terms = []
    want = rng.randint(1, 6)
    attempts = 0
    while len(terms) < want and attempts < 60:
        attempts += 1
        term = random_monomial(rng, pool, 4)
        if term_bidegree(term[0]).parity != parity:
            continue
        terms.append(term)
    return LocalFunction.from_terms(terms)


def random_field_sector(rng, pool, terms=3, max_len=3):
    return LocalFunction.from_terms(
        random_monomial(rng, pool, max_len) for _ in range(terms))


# ------------------------------------------------- 1. graded product laws

def test_product_laws_on_randomized_homogeneous_inputs():
    rng = random.Random(20260818)
    start = time.monotonic()
    for _ in range(1000):
        pf = rng.randint(0, 1)
        pg = rng.randint(0, 1)
        f = random_homogeneous(rng, pf)
        g = random_homogeneous(rng, pg)
        h = random_homogeneous(rng, rng.randint(0, 1))

        assert (f * g) * h == f * (g * h)

        swap = -1 if pf and pg else 1
        assert f * g == swap * (g * f)

        z = rng.choice(GRADED_POOL)
        lead = -1 if z.parity and pf else 1
        assert graded_partial(f * g, z, "left") == (
            graded_partial(f, z, "left") * g
            + lead * (f * graded_partial(g, z, "left")))
    assert time.monotonic() - start < 60.0


# ------------------------------- 2. variational derivative kills divergences

def test_euler_lagrange_annihilates_randomized_divergences():
    rng = random.Random(20260819)
    pool = [base(1), base(2)]
    for fam in ("1", "2"):
        for jet in all_multi_indices(2, 3):
            pool.append(field(fam, jet))
    for _ in range(200):
        j1 = random_field_sector(rng, pool)
        j2 = random_field_sector(rng, pool)
        div = total_derivative(j1, 1) + total_derivative(j2, 2)
        for fam in ("1", "2"):
            assert euler_lagrange(div, fam).is_zero
        # total derivatives commute on the same corpus
        assert (total_derivative(total_derivative(j1, 1), 2)
                == total_derivative(total_derivative(j1, 2), 1))


# ----------------------------------------------------- 3. bracket axioms

def test_bracket_axioms_hold_and_sign_mutant_is_caught():
    report = gerstenhaber_harness(samples=1000)
    assert report.passed
    assert report.checks == 3 * 1000

    # flip the relative sign between the two pairing terms
    def mutant(f, g):
        out = LocalFunction.zero()
        for z, zs in [(field("1"), antifield("1")),
                      (field("2"), antifield("2")),
                      (ghost("1"), antighost("1"))]:
            out = out + graded_partial(f, z, "right") * graded_partial(g, zs, "left")
            out = out + graded_partial(f, zs, "right") * graded_partial(g, z, "left")
        return out

    broken = gerstenhaber_harness(samples=300, bracket=mutant)
    assert not broken.passed
    assert "jacobi" in {failure.identity for failure in broken.failures}
    witness = broken.failures[0]
    assert witness.lhs != witness.rhs


# ------------------------------------------------- 4. second-order operator

def test_laplacian_is_nilpotent_and_generates_the_bracket():
    rng = random.Random(20260820)
    for _ in range(500):
        f = random_local_function(rng, pool=POINT_POOL)
        assert bv_laplacian(bv_laplacian(f)).is_zero
    report = bv_identity_harness(samples=500)
    assert report.passed


# ------------------------------------------- 5. boundary stage of the lift

def test_stage_one_differential_and_abelian_residual():
    S1 = build_stage_action(scalar_model(), 1)
    assert kt_differential(S1, gen(antifield("1"))) == -gen(field("1", (1, 1)))

    abelian = build_stage_action(curl_model(), 1)
    assert master_residual(abelian) == {}


# --------------------------------------- 6. rotation ghosts and obstruction

def test_rotation_ghost_solution_matches_the_lie_structure():
    S, records = solve_master(ghost_so3_model(), 3)
    assert records == []
    assert S.residual_report == {}
    assert S.total == parse_expression(
        "C[1]*C[2]*Cstar[3] - C[1]*C[3]*Cstar[2] + C[2]*C[3]*Cstar[1]")

    L = extract_brackets(S, 4)
    assert L.arities() == (2,)
    by_name = {b.name: b for b in L.basis}
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        key = (by_name[f"C[{i}]"], by_name[f"C[{j}]"])
        expected = Element({
            by_name[f"C[{k}]"]: Fraction(EPS[(i, j, k)])
            for k in (1, 2, 3) if (i, j, k) in EPS
        })
        assert L.tensors[2][key] == expected
    assert check_linfty(L, 4).passed

    bad, bad_records = solve_master(non_jacobi_ghost_model(), 4)
    assert len(bad_records) == 1
    record = bad_records[0]
    assert not record.lifted
    assert record.antifield_number == 2
    assert record.correction is None
    assert record.ansatz_dimensions[0] == 0
    assert not record.obstruction.is_zero
    assert set(bad.residual_report) == {2}


# ------------------------------------------------------ 7. open algebra

def test_open_algebra_lift_needs_a_quadratic_antifield_term():
    S, records = solve_master(open_algebra_model(), 3)
    assert S.residual_report == {}
    assert antibracket(S.total, S.total, 0).is_zero

    assert len(records) == 1
    record = records[0]
    assert record.lifted
    expected = -(gen(antifield("2")) * gen(antifield("3"))
                 * gen(ghost("1")) * gen(ghost("2")))
    assert record.correction == expected
    # the correction is quadratic in the antifields
    assert set(decompose_by_antifield_number(record.correction)) == {2}


# --------------------------------------- 8. identity checker vs. oracle

def permutation_sign(perm, parities):
    """Naive inversion count; a factor of -1 per odd-odd inversion."""
    sign = 1
    for p in range(len(perm)):
        for q in range(p + 1, len(perm)):
            if perm[p] > perm[q] and parities[perm[p]] % 2 and parities[perm[q]] % 2:
                sign = -sign
    return sign


def oracle_bracket(L, inputs):
    """Look up a bracket value by sorting the inputs into basis order."""
    order = {b: i for i, b in enumerate(L.basis)}
    n = len(inputs)
    perm = tuple(sorted(range(n), key=lambda i: order[inputs[i]]))
    sign = permutation_sign(perm, [b.parity for b in inputs])
    key = tuple(inputs[i] for i in perm)
    return sign * L.tensors.get(n, {}).get(key, Element.zero())


def oracle_residual(L, inputs):
    """Enumerate all permutations and keep the sorted splittings."""
    n = len(inputs)
    parities = [b.parity for b in inputs]
    total = Element.zero()
    for k in range(1, n + 1):
        for perm in itertools.permutations(range(n)):
            if any(perm[i] > perm[i + 1] for i in range(k - 1)):
                continue
            if any(perm[i] > perm[i + 1] for i in range(k, n - 1)):
                continue
            sign = permutation_sign(perm, parities)
            inner = oracle_bracket(L, tuple(inputs[i] for i in perm[:k]))
            for b, c in inner.items():
                rest = (b,) + tuple(inputs[i] for i in perm[k:])
                total = total + (sign * c) * oracle_bracket(L, rest)
    return total


def random_structure(rng):
    dim = rng.randint(2, 6)
    basis = tuple(BasisElement(f"e{i}", rng.randint(-2, 3))
                  for i in range(1, dim + 1))
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b.degree, []).append(b)

    def element_in_degree(d):
        out = Element.zero()
        for b in by_degree.get(d, []):
            if rng.random() < 0.6:
                out = out + Element.from_basis(
                    b, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return out

    tensors = {1: {}}
    for b in basis:
        value = element_in_degree(b.degree - 1)
        if not value.is_zero:
            tensors[1][(b,)] = value

    for n in (2, 3, 4):
        keys = [key for key in itertools.combinations_with_replacement(basis, n)
                if not any(a == b and a.parity for a, b in zip(key, key[1:]))]
        rng.shuffle(keys)
        table = {}
        for key in keys[:rng.randint(1, 4)]:
            value = element_in_degree(sum(b.degree for b in key) - 1)
            if not value.is_zero:
                table[key] = value
        if table:
            tensors[n] = table
    return LInftyStructure(basis, tensors)


def test_identity_checker_agrees_with_permutation_oracle():
    rng = random.Random(20260821)
    start = time.monotonic()
    for _ in range(100):
        L = random_structure(rng)
        failing = set()
        checked = 0
        for n in range(1, 5):
            for tup in itertools.combinations_with_replacement(L.basis, n):
                expected = oracle_residual(L, tup)
                assert identity_residual(L, tup) == expected
                checked += 1
                if not expected.is_zero:
                    failing.add((n, tup))
        report = check_linfty(L, 4)
        assert report.checked == checked
        assert {(n, tup) for n, tup, _ in report.failures} == failing
    assert time.monotonic() - start < 300.0


# --------------------------------------------------- 9. quantum residual

def test_quantum_master_reports_match_frozen_values():
    report = quantum_master_check(build_stage_action(ghost_so3_model(), 2))
    assert report.classical.is_zero
    assert report.delta.is_zero
    assert report.quantum_residual.is_zero

    probe = gen(field("1")) * gen(antifield("1"))
    report = quantum_master_check(probe)
    assert report.classical.is_zero
    assert report.delta == LocalFunction.one()
    assert report.quantum_residual == -LocalFunction.one()
    assert not report.quantum_residual.is_zero


# --------------------------------------- 10. determinism and round trips

def test_reports_are_deterministic_and_printing_round_trips():
    for argv in ALL_COMMANDS:
        full = argv + ["--format", "structured"]
        first = run_command(full)
        second = run_command(full)
        assert first == second
        status, text = first
        payload = json.loads(text)
        assert payload["command"] == argv[0]
        assert len(payload["model"]) == 64

    rng = random.Random(20260822)
    for _ in range(500):
        f = random_local_function(rng, terms=rng.randint(0, 4))
        assert parse_expression(format_local_function(f)) == f


def _names_used(tree: ast.Module) -> set[str]:
    """Every name the module reads, counting string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _names_used(ast.parse(annotation.value))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_the_package_imports_only_what_it_uses():
    package = Path(__file__).parents[1] / "src" / "bvforge"
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        unused += [f"{path.name}: {name}"
                   for name in sorted(imported - _names_used(tree) - {"annotations"})]
    assert unused == []


_COMPARISONS = {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"}


def test_the_package_keeps_one_term_order():
    # a generator's tuple value is its place in the term order, so no module
    # names a second key and Generator keeps tuple's own comparisons
    package = Path(__file__).parents[1] / "src" / "bvforge"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "arg", "asname")}
            offenders += [f"{path.name}:{node.lineno}: {name}"
                          for name in sorted(names & {"sort_key", "term_key"})]
            if isinstance(node, ast.ClassDef) and node.name == "Generator":
                defined = {item.id for item in ast.walk(node)
                           if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store)}
                defined |= {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                offenders += [f"{path.name}: Generator.{name}"
                              for name in sorted(defined & _COMPARISONS)]
    assert offenders == []


def test_the_package_does_not_import_random():
    # random sampling is test machinery; the library stays deterministic
    package = Path(__file__).parents[1] / "src" / "bvforge"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in modules
                          if name.split(".")[0] == "random"]
    assert offenders == []


def test_the_package_imports_only_the_standard_library():
    # the engine ships with no dependencies: every import is relative or
    # of a standard module
    package = Path(__file__).parents[1] / "src" / "bvforge"
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in modules
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_each_model_data_refusal_is_written_once():
    # the checks on model data live in jet.ModelNames and jet.ModelTable;
    # a second copy of one of their refusals elsewhere would drift from it
    names = ModelNames(1, frozenset({"1"}), frozenset({"e"}), max_jet_order=1)
    one = LocalFunction.one()
    refusals = [
        (names.field_label, ("9",), "unknown field family"),
        (names.gauge_label, ("9",), "unknown gauge index"),
        (names.direction, (0,), "spatial directions start at"),
        (names.direction, (2,), "exceeds dimension"),
        (names.jet, ((1, 1),), "exceeds bound"),
        (names.field_sector, (gen(ghost("e")),), "atoms do not belong in the field sector"),
        (STRUCTURE_FUNCTIONS.check_value, (names, {}, ("e", "1", "1"), one),
         "a diagonal entry must vanish"),
        (STRUCTURE_FUNCTIONS.check_value, (names, {("e", "1", "2"): one}, ("e", "2", "1"), one),
         "are not antisymmetric"),
    ]
    package = Path(__file__).parents[1] / "src" / "bvforge"
    source = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    for check, args, words in refusals:
        with pytest.raises(ValueError, match=words):
            check(*args)
        assert source.count(words) == 1, words


def test_no_module_imports_a_private_name_of_another():
    package = Path(__file__).parents[1] / "src" / "bvforge"
    private = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bvforge")):
                private += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _divisions(tree: ast.AST):
    """(line, divisor) for every ``/`` and ``/=`` in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield node.lineno, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, node.value


def test_every_division_in_the_package_is_by_a_fraction():
    # coefficients are ints when integral, and int / int is a float
    package = Path(__file__).parents[1] / "src" / "bvforge"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for line, divisor in _divisions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(divisor, ast.Call) and isinstance(divisor.func, ast.Name)
                    and divisor.func.id == "Fraction"):
                offenders.append(f"{path.name}:{line}")
    assert offenders == []


def test_solved_fixture_actions_hold_only_ints_and_fractions():
    solved = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        spec = parse_document(path.read_text(encoding="utf-8")).spec
        if not check_noether(spec).all_pass:
            continue
        action, records = solve_master(spec, 3)
        functions = [action.total, *(r.correction for r in records if r.correction is not None)]
        kinds = {type(c) for f in functions for _, c in f.terms()}
        assert kinds <= {int, Fraction}, (path.name, kinds)
        solved += 1
    assert solved >= 10
