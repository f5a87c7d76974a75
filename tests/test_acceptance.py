"""End-to-end acceptance checks, one test per shipped guarantee.

Every assertion here is exact; no tolerances appear anywhere.  Randomized
corpora use fixed seeds so failures reproduce verbatim.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

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
from bvforge.bracket import antibracket, bv_identity_harness, bv_laplacian, gerstenhaber_harness
from bvforge.cli import run_command
from bvforge.expr import format_local_function, parse_expression
from bvforge.jet import ModelSpec, all_multi_indices, euler_lagrange, total_derivative
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

HALF = LocalFunction.constant(Fraction(1, 2))
FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------- models

EPS = {}
for _i, _j, _k, _s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]:
    EPS[(_i, _j, _k)] = _s


def eps_structure_functions():
    out = {}
    for gamma in (1, 2, 3):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                s = EPS.get((alpha, beta, gamma), 0)
                if s:
                    out[(str(gamma), str(alpha), str(beta))] = LocalFunction.constant(s)
    return out


def scalar_model():
    u1 = gen(field("1", (1,)))
    return ModelSpec(
        spatial_dim=1,
        fields=("1",),
        gauge_indices=("e",),
        lagrangian=HALF * u1 * u1,
        gauge_coefficients={("1", "e", (1,)): LocalFunction.one()},
        max_jet_order=2,
        max_poly_degree=3,
    )


def curl_model():
    curl = gen(field("1", (2,))) - gen(field("2", (1,)))
    return ModelSpec(
        spatial_dim=2,
        fields=("1", "2"),
        gauge_indices=("e",),
        lagrangian=HALF * curl * curl,
        gauge_coefficients={
            ("1", "e", (1,)): LocalFunction.one(),
            ("2", "e", (2,)): LocalFunction.one(),
        },
        max_jet_order=2,
        max_poly_degree=3,
    )


def ghost_so3_model():
    return ModelSpec(
        spatial_dim=0,
        fields=(),
        gauge_indices=("1", "2", "3"),
        lagrangian=LocalFunction.zero(),
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def open_algebra_model():
    """Two shift symmetries closing only on the equation of motion of u3."""
    return ModelSpec(
        spatial_dim=0,
        fields=("1", "2", "3"),
        gauge_indices=("1", "2"),
        lagrangian=HALF * gen(field("3")) ** 2,
        gauge_coefficients={
            ("1", "1", ()): gen(field("3")),
            ("2", "2", ()): gen(field("1")),
        },
        max_poly_degree=4,
    )


def non_jacobi_ghost_model():
    # antisymmetric structure constants that fail the Jacobi identity
    table = {}
    for (gamma, alpha, beta) in [("3", "1", "2"), ("1", "2", "3"), ("1", "1", "3")]:
        table[(gamma, alpha, beta)] = LocalFunction.one()
        table[(gamma, beta, alpha)] = -LocalFunction.one()
    return ModelSpec(
        spatial_dim=0,
        fields=(),
        gauge_indices=("1", "2", "3"),
        lagrangian=LocalFunction.zero(),
        structure_functions=table,
        max_poly_degree=3,
    )


# ---------------------------------------------------------------- corpora

GRADED_POOL = [
    base(1), base(2),
    field("1"), field("1", (1,)), field("2"), field("2", (1, 2)),
    antifield("1"), antifield("2", (1,)),
    ghost("1"), ghost("2"), ghost("1", (2,)),
    antighost("1"), antighost("2"),
]

POINT_POOL = [
    field("1"), antifield("1"),
    field("2"), antifield("2"),
    ghost("1"), antighost("1"),
]


def random_monomial(rng, pool, max_len):
    k = rng.randint(0, max_len)
    flat = [rng.choice(pool) for _ in range(k)]
    coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return tuple((g, 1) for g in flat), coeff


def random_local_function(rng, pool=GRADED_POOL, terms=3, max_len=4):
    return LocalFunction.from_terms(
        random_monomial(rng, pool, max_len) for _ in range(terms))


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
    assert report.satisfied

    probe = gen(field("1")) * gen(antifield("1"))
    report = quantum_master_check(probe)
    assert report.classical.is_zero
    assert report.delta == LocalFunction.one()
    assert report.quantum_residual == -LocalFunction.one()
    assert not report.satisfied


# --------------------------------------- 10. determinism and round trips

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
