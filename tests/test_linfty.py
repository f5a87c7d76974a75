"""Bracket extraction, identity checks, conversions, and deformations."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from bvforge import cli, linfty
from bvforge.algebra import (Generator, LocalFunction, antifield, antighost, field, gen,
                             ghost, graded_partial, term_bidegree)
from bvforge.bracket import JetModelUnsupported, antibracket
from bvforge.cli import run_command
from bvforge.expr import format_generator
from bvforge.jet import ModelSpec
from bvforge.linfty import (
    MATH,
    MAX_IDENTITY_TUPLES,
    PHYSICS,
    BasisElement,
    DegreeMismatch,
    Element,
    IdentityCheckReport,
    InsufficientStrata,
    LInftyStructure,
    check_linfty,
    convert_conventions,
    extract_brackets,
    identity_residual,
    identity_tuple_count,
    mc_residual,
    unshuffles,
)
from bvforge.master import BVAction, build_stage_action, solve_master
from bvforge.modelfile import parse_document, print_model

HALF = LocalFunction.constant(Fraction(1, 2))

EPS = {}
for _i, _j, _k, _s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]:
    EPS[(_i, _j, _k)] = _s


def eps_structure_functions():
    out = {}
    for gamma, alpha, beta in itertools.product((1, 2, 3), repeat=3):
        s = EPS.get((alpha, beta, gamma), 0)
        if s:
            out[(str(gamma), str(alpha), str(beta))] = LocalFunction.constant(s)
    return out


def ghost_so3_model():
    return ModelSpec(
        spatial_dim=0,
        fields=(),
        gauge_indices=("1", "2", "3"),
        lagrangian=LocalFunction.zero(),
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def full_so3_model():
    coeffs = {}
    for alpha in (1, 2, 3):
        for a in (1, 2, 3):
            r = LocalFunction.zero()
            for b in (1, 2, 3):
                s = EPS.get((b, alpha, a), 0)
                if s:
                    r = r + s * gen(field(str(b)))
            if not r.is_zero:
                coeffs[(str(a), str(alpha), ())] = r
    lagr = LocalFunction.zero()
    for a in (1, 2, 3):
        lagr = lagr + HALF * gen(field(str(a))) ** 2
    return ModelSpec(
        spatial_dim=0,
        fields=("1", "2", "3"),
        gauge_indices=("1", "2", "3"),
        lagrangian=lagr,
        gauge_coefficients=coeffs,
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def open_algebra_model():
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


def finite_abelian_model():
    diff = gen(field("1")) - gen(field("2"))
    return ModelSpec(
        spatial_dim=0,
        fields=("1", "2"),
        gauge_indices=("e",),
        lagrangian=HALF * diff * diff,
        gauge_coefficients={
            ("1", "e", ()): LocalFunction.one(),
            ("2", "e", ()): LocalFunction.one(),
        },
        max_poly_degree=3,
    )


def odd_basis(*names):
    return tuple(BasisElement(n, 1) for n in names)


def lie_structure(names, table):
    """Load antisymmetric structure constants on a degree-one odd basis."""
    basis = odd_basis(*names)
    by_name = {b.name: b for b in basis}
    tensor = {}
    for (x, y), value in table.items():
        tensor[(by_name[x], by_name[y])] = Element(
            {by_name[z]: Fraction(c) for z, c in value.items()})
    return LInftyStructure(basis=basis, tensors={2: tensor})


def so3_structure():
    table = {}
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        value = {}
        for k in (1, 2, 3):
            s = EPS.get((i, j, k), 0)
            if s:
                value[str(k)] = s
        table[(str(i), str(j))] = value
    return lie_structure(("1", "2", "3"), table)


def sl2_structure():
    return lie_structure(
        ("h", "e", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})


def broken_jacobi_structure():
    return lie_structure(
        ("a", "b", "c"),
        {("a", "b"): {"c": 1}, ("b", "c"): {"a": 1}, ("a", "c"): {"a": 1}})


def triple_bracket_structure(mu_pair):
    """Only an arity-3 bracket: five odd inputs feed one chained output."""
    a = odd_basis("a1", "a2", "a3", "a4", "a5")
    b = BasisElement("b", 2)
    c = BasisElement("c", 3)
    tensor = {
        (a[0], a[1], a[2]): Element.from_basis(b),
        (b, a[mu_pair[0] - 1], a[mu_pair[1] - 1]): Element.from_basis(c),
    }
    return LInftyStructure(basis=a + (b, c), tensors={3: tensor})


# ---------------------------------------------------------------- unshuffles

def naive_unshuffle_sign(parities, order):
    sign = 1
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            if order[p] > order[q] and parities[order[p]] and parities[order[q]]:
                sign = -sign
    return sign


def test_unshuffle_counts_match_binomials():
    rng = random.Random(424)
    for n in range(1, 7):
        parities = [rng.randint(0, 1) for _ in range(n)]
        for k in range(1, n + 1):
            splits = list(unshuffles(parities, k))
            expected = len(list(itertools.combinations(range(n), k)))
            assert len(splits) == expected


def test_unshuffle_matches_permutation_filter():
    for n in range(2, 6):
        for k in range(1, n):
            found = {tuple(left) + tuple(right)
                     for left, right, _ in unshuffles([1] * n, k)}
            brute = {
                perm for perm in itertools.permutations(range(n))
                if list(perm[:k]) == sorted(perm[:k])
                and list(perm[k:]) == sorted(perm[k:])
            }
            assert found == brute


def test_unshuffle_signs_match_full_permutation_koszul():
    rng = random.Random(77)
    samples = 0
    while samples < 500:
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        parities = [rng.randint(0, 1) for _ in range(n)]
        for left, right, sign in unshuffles(parities, k):
            assert sign == naive_unshuffle_sign(parities, left + right)
            samples += 1


# ------------------------------------------------- reordering sign oracles
# The swap loops that signed reorderings before ``inversion_parity`` did.
# Each adjacent swap of distinct inputs a, b costs the Koszul sign, and in
# the mathematics grading one more transposition sign.

def bubble_canonical(L, tup):
    items = list(tup)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            a, b = items[j], items[j + 1]
            if L._index[a] > L._index[b]:
                sign *= -1 if a.parity and b.parity else 1
                if L.convention == MATH:
                    sign = -sign
                items[j], items[j + 1] = b, a
    return tuple(items), sign


def crossing_unshuffles(parities, k):
    n = len(parities)
    for left in itertools.combinations(range(n), k):
        chosen = set(left)
        right = tuple(i for i in range(n) if i not in chosen)
        sign = 1
        for i in left:
            for j in right:
                if j < i and parities[i] % 2 and parities[j] % 2:
                    sign = -sign
        yield left, right, sign


SIGN_BASIS = tuple(BasisElement(f"s{i}", d) for i, d in enumerate((1, 0, 1, -1, 2, 1), 1))


def sign_tuples():
    """500 seeded tuples of length 0 to 6 over SIGN_BASIS."""
    rng = random.Random(20261018)
    return [tuple(rng.choice(SIGN_BASIS) for _ in range(rng.randint(0, 6)))
            for _ in range(500)]


def canonical_mismatches(canonical):
    """The (convention, tuple) pairs on which ``canonical`` and the bubble sort disagree."""
    mismatches = []
    for convention in (PHYSICS, MATH):
        L = LInftyStructure(SIGN_BASIS, convention=convention)
        mismatches += [(convention, t) for t in sign_tuples()
                       if canonical(L, t) != bubble_canonical(L, t)]
    return mismatches


def test_canonical_matches_the_bubble_sort_oracle():
    assert canonical_mismatches(LInftyStructure._canonical) == []
    # the sample repeats entries, mixes parities and needs real reordering
    tuples = sign_tuples()
    assert sum(len(set(t)) < len(t) for t in tuples) >= 100
    assert sum(sum(b.parity for b in t) >= 2 for t in tuples) >= 100
    for convention in (PHYSICS, MATH):
        L = LInftyStructure(SIGN_BASIS, convention=convention)
        assert {bubble_canonical(L, t)[1] for t in tuples} == {1, -1}


def test_canonical_mutant_without_the_transposition_signs_is_caught():
    # the mathematics grading reordered with the Koszul sign alone
    def koszul_only(L, tup):
        return LInftyStructure._canonical(LInftyStructure(L.basis), tup)
    mismatches = canonical_mismatches(koszul_only)
    assert mismatches
    assert {convention for convention, _ in mismatches} == {MATH}


def test_unshuffles_match_the_crossing_oracle_on_every_split():
    for n in range(7):
        for parities in itertools.product((0, 1), repeat=n):
            for k in range(n + 1):
                assert list(unshuffles(parities, k)) == list(crossing_unshuffles(parities, k))


# ---------------------------------------------------------------- structure

def test_structure_canonicalizes_keys_with_koszul_sign():
    e1, e2 = odd_basis("1", "2")
    out = Element.from_basis(BasisElement("m", 1))
    L = LInftyStructure(
        basis=(e1, e2, BasisElement("m", 1)),
        tensors={2: {(e2, e1): out}})
    assert L.tensors[2][(e1, e2)] == -1 * out


def test_structure_rejects_forced_zero_entries():
    e1, e2 = odd_basis("1", "2")
    m = BasisElement("m", 1)
    with pytest.raises(ValueError):
        LInftyStructure(
            basis=(e1, e2, m),
            tensors={2: {(e1, e1): Element.from_basis(m)}})


def test_structure_rejects_degree_law_violations():
    e1, e2 = odd_basis("1", "2")
    wrong = BasisElement("w", 0)
    with pytest.raises(ValueError):
        LInftyStructure(
            basis=(e1, e2, wrong),
            tensors={2: {(e1, e2): Element.from_basis(wrong)}})
    with pytest.raises(ValueError):
        LInftyStructure(
            basis=(e1, e2),
            tensors={1: {(e1,): Element.from_basis(e2)}})
    # the differential is l1: degree -1 in the physics grading, +1 in the mathematics one
    up = LInftyStructure(basis=(e1, wrong), tensors={1: {(wrong,): Element.from_basis(e1)}},
                         convention=MATH)
    assert up.tensors == {1: {(wrong,): Element.from_basis(e1)}}
    with pytest.raises(ValueError):
        LInftyStructure(basis=(e1, wrong), tensors={1: {(e1,): Element.from_basis(wrong)}},
                        convention=MATH)
    with pytest.raises(ValueError):
        LInftyStructure(basis=(e1, e2), tensors={0: {(): Element.from_basis(e1)}})


def test_apply_reorders_inputs():
    L = so3_structure()
    e1, e2, _ = L.basis
    forward = L.apply(2, [Element.from_basis(e1), Element.from_basis(e2)])
    backward = L.apply(2, [Element.from_basis(e2), Element.from_basis(e1)])
    assert forward == -1 * backward
    assert not forward.is_zero


def test_apply_is_multilinear():
    L = so3_structure()
    e1, e2, e3 = L.basis
    x = Element.from_basis(e1, 2) + Element.from_basis(e2, 3)
    value = L.apply(2, [x, Element.from_basis(e3)])
    direct = (2 * L.apply(2, [Element.from_basis(e1), Element.from_basis(e3)])
              + 3 * L.apply(2, [Element.from_basis(e2), Element.from_basis(e3)]))
    assert value == direct


# ---------------------------------------------------------------- extraction

def test_extraction_of_rotation_ghost_action():
    S = build_stage_action(ghost_so3_model(), 2)
    L = extract_brackets(S, 4)
    assert L.convention == PHYSICS
    assert L.arities() == (2,)
    by_name = {b.name: b for b in L.basis}
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        key = (by_name[f"C[{i}]"], by_name[f"C[{j}]"])
        expected = Element({
            by_name[f"C[{k}]"]: Fraction(EPS[(i, j, k)])
            for k in (1, 2, 3) if (i, j, k) in EPS
        })
        assert L.tensors[2][key] == expected


def test_extraction_of_finite_abelian_action():
    S, _ = solve_master(finite_abelian_model(), 2)
    L = extract_brackets(S, 3)
    assert L.arities() == (1,)
    by_name = {b.name: b for b in L.basis}
    image = L.apply(1, [Element.from_basis(by_name["C[e]"])])
    assert image == Element({by_name["u[1]"]: Fraction(1),
                             by_name["u[2]"]: Fraction(1)})
    report = check_linfty(L, 2)
    assert report.passed


def test_extraction_of_full_rotation_action():
    S, _ = solve_master(full_so3_model(), 3)
    L = extract_brackets(S, 4)
    by_name = {b.name: b for b in L.basis}
    # equation-of-motion part of the differential
    for a in (1, 2, 3):
        image = L.apply(1, [Element.from_basis(by_name[f"u[{a}]"])])
        assert image == Element.from_basis(by_name[f"ustar[{a}]"])
    # field rotation under the binary bracket
    value = L.apply(2, [Element.from_basis(by_name["u[1]"]),
                        Element.from_basis(by_name["C[2]"])])
    assert value == Element.from_basis(by_name["u[3]"], -1)


def test_extraction_commutes_with_master_equation():
    solved_full, _ = solve_master(full_so3_model(), 3)
    assert check_linfty(extract_brackets(solved_full, 4), 4).passed
    solved_open, _ = solve_master(open_algebra_model(), 3)
    assert check_linfty(extract_brackets(solved_open, 4), 4).passed


def test_extraction_of_zero_action():
    S = BVAction.from_total(LocalFunction.zero(), 0, 3)
    L = extract_brackets(S, 3)
    assert L.basis == ()
    assert not L.tensors


def test_extraction_strata_gate():
    total = build_stage_action(ghost_so3_model(), 2).total
    shallow = BVAction.from_total(total, 0, solved_up_to=1)
    with pytest.raises(InsufficientStrata):
        extract_brackets(shallow, 2)
    assert extract_brackets(shallow, 1) is not None


def test_extraction_rejects_jet_models():
    curl = gen(field("1", (2,))) - gen(field("2", (1,)))
    m = ModelSpec(
        spatial_dim=2,
        fields=("1", "2"),
        gauge_indices=("e",),
        lagrangian=HALF * curl * curl,
        gauge_coefficients={("1", "e", (1,)): LocalFunction.one(),
                            ("2", "e", (2,)): LocalFunction.one()},
    )
    S, _ = solve_master(m, 2)
    with pytest.raises(JetModelUnsupported):
        extract_brackets(S, 2)


# The oracle for ``extract_brackets``: the earlier extraction, one full
# antibracket per generator polarized by iterated left derivatives.
def polarized_extract_brackets(S: BVAction, n_max: int) -> LInftyStructure:
    """Read the multi-brackets off a finite-model action.

    For each generator z the expansion of (S, z) in monomials is polarized
    by iterated left derivatives at the origin; the arity-n coefficients,
    weighted by (-1)^(n+1), form the arity-n bracket.  That weight makes
    the binary bracket of a ghost-cubic action reproduce the structure
    constants with their textbook orientation.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if S.spatial_dim != 0:
        raise JetModelUnsupported("extraction needs a finite model")
    needed = 1 if n_max == 1 else 2
    if S.solved_up_to < needed:
        raise InsufficientStrata(
            f"arity {n_max} needs strata solved through antifield number "
            f"{needed}, have {S.solved_up_to}")

    generators: set[Generator] = set()
    for g in S.total.generators():
        generators.add(g)
        generators.add(g.conjugate())
    basis_gens = sorted(generators)
    to_basis = {g: BasisElement(format_generator(g), g.ghost_number)
                for g in basis_gens}

    tensors: dict[int, dict[tuple[BasisElement, ...], Element]] = {}
    for g in basis_gens:
        image = antibracket(S.total, gen(g), 0)
        by_degree: dict[int, list] = {}
        for factors, c in image.sorted_terms():
            degree = sum(e for _, e in factors)
            if 1 <= degree <= n_max:
                by_degree.setdefault(degree, []).append((factors, c))
        for n, terms in sorted(by_degree.items()):
            part = LocalFunction.from_terms(terms)
            weight = 1 if n % 2 else -1
            keys = sorted({
                tuple(z for z, e in factors for _ in range(e))
                for factors, _ in terms
            })
            for key in keys:
                probe = part
                for z in key:
                    probe = graded_partial(probe, z, "left")
                coefficient = weight * probe.constant_term()
                if coefficient == 0:
                    continue
                contribution = Element.from_basis(to_basis[g], coefficient)
                table = tensors.setdefault(n, {})
                bkey = tuple(to_basis[z] for z in key)
                table[bkey] = table.get(bkey, Element.zero()) + contribution

    return LInftyStructure(
        basis=tuple(to_basis[g] for g in basis_gens),
        tensors=tensors,
        convention=PHYSICS,
    )


FIXTURES = Path(__file__).parent / "fixtures"
FINITE_FIXTURES = ("gl3", "mc_fail", "open_algebra", "rotation", "so3_full",
                   "so3_ghost", "zero")
RANDOM_POOL = (field("1"), field("2"), antifield("1"), antifield("2"),
               ghost("1"), ghost("2"), ghost("3"), antighost("1"), antighost("2"))


@functools.lru_cache(maxsize=None)
def fixture_action(name: str) -> BVAction:
    spec = parse_document((FIXTURES / f"{name}.bv").read_text(encoding="utf-8")).spec
    return solve_master(spec, 3)[0]


def random_ghost_number_zero_action(rng: random.Random) -> BVAction:
    """A finite action of ghost number zero with a few terms of degree 1 to 6.

    Even generators may repeat up to the cube, so keys with repeated
    inputs occur; odd generators enter at most once per term.
    """
    data: dict = {}
    while len(data) < rng.randint(2, 6):
        factors = []
        for _ in range(rng.randint(1, 4)):
            z = rng.choice(RANDOM_POOL)
            factors.append((z, 1 if z.is_odd else rng.randint(1, 3)))
        term = (tuple(factors), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        if term_bidegree(term[0]).total == 0 and 1 <= sum(e for _, e in factors) <= 6:
            data.update(LocalFunction.from_terms([term]).terms())
    return BVAction.from_total(LocalFunction(data), 0, solved_up_to=2)


def random_actions() -> list[BVAction]:
    rng = random.Random(20261018)
    return [random_ghost_number_zero_action(rng) for _ in range(120)]


def extraction_mismatches(stop_at_first: bool = False) -> list[tuple[str, int]]:
    """Cases where ``extract_brackets`` differs from the polarized oracle."""
    cases = [(name, fixture_action(name)) for name in FINITE_FIXTURES]
    cases += [(f"random {i}", S) for i, S in enumerate(random_actions())]
    out = []
    for label, S in cases:
        for n in range(1, 6):
            if extract_brackets(S, n) != polarized_extract_brackets(S, n):
                out.append((label, n))
                if stop_at_first:
                    return out
    return out


def test_extraction_matches_the_polarized_oracle():
    assert extraction_mismatches() == []


def test_random_actions_exercise_repeated_inputs_and_odd_generators():
    repeated = odd = 0
    for S in random_actions():
        L = extract_brackets(S, 5)
        keys = [key for table in L.tensors.values() for key in table]
        repeated += any(len(set(key)) < len(key) for key in keys)
        odd += any(b.parity for key in keys for b in key)
    assert repeated >= 50
    assert odd >= 50


def _sign_dropping_partial(f, z, side):
    # a field or ghost g is read off -dR S/dg*; this mutant reads +dR S/dg*
    value = graded_partial(f, z, side)
    return -value if z.antifield_number else value


@pytest.mark.parametrize("attr, mutant", [
    ("graded_partial", _sign_dropping_partial),
    ("factorial", lambda e: 1),
])
def test_extraction_mutants_are_caught(monkeypatch, attr, mutant):
    monkeypatch.setattr(linfty, attr, mutant)
    assert extraction_mismatches(stop_at_first=True)


def memoized(function):
    cache = {}

    def wrapper(m, K):
        key = (print_model(m), m.max_jet_order, m.max_poly_degree, K)
        if key not in cache:
            cache[key] = function(m, K)
        return cache[key]
    return wrapper


def test_reports_are_byte_identical_with_the_polarized_oracle(monkeypatch):
    # both extractions read the same solved actions; only the extraction differs
    monkeypatch.setattr(cli, "_solved_action", memoized(cli._solved_action))
    argvs = []
    for path in sorted(FIXTURES.glob("*.bv")):
        for fmt in ("text", "structured"):
            argvs += [["extract", str(path), "-n", str(n), "--format", fmt] for n in (1, 2, 3, 4)]
            argvs += [[command, str(path), "--format", fmt] for command in ("check-linfty", "mc")]
    current = [run_command(argv) for argv in argvs]
    monkeypatch.setattr(cli, "extract_brackets", polarized_extract_brackets)
    oracle = [run_command(argv) for argv in argvs]
    assert current == oracle
    statuses = {status for status, _ in current}
    assert statuses == {0, 1, 2}


# ---------------------------------------------------------------- identities

def test_lie_algebras_pass_through_arity_four():
    assert check_linfty(so3_structure(), 4).passed
    assert check_linfty(sl2_structure(), 4).passed


def test_broken_jacobi_fails_in_the_ternary_identity():
    report = check_linfty(broken_jacobi_structure(), 3)
    assert not report.passed
    assert {n for n, _, _ in report.failures} == {3}
    assert not report.jacobi_passed
    assert report.jacobi_failures == tuple(
        (tup, res) for n, tup, res in report.failures if n == 3)


def test_ternary_identity_value_on_broken_fixture():
    L = broken_jacobi_structure()
    a, b, c = L.basis
    residual = identity_residual(L, (a, b, c))
    assert residual == Element.from_basis(c, -1)


def test_all_zero_structure_passes():
    basis = odd_basis("1", "2")
    report = check_linfty(LInftyStructure(basis=basis), 4)
    assert report.passed
    assert report.checked > 0


def test_differential_square_detection():
    p = BasisElement("p", 0)
    q = BasisElement("q", 1)
    r = BasisElement("r", -1)
    good = LInftyStructure(
        basis=(p, q, r),
        tensors={1: {(q,): Element.from_basis(p)}})
    assert check_linfty(good, 1).passed
    bad = LInftyStructure(
        basis=(p, q, r),
        tensors={1: {(q,): Element.from_basis(p), (p,): Element.from_basis(r)}})
    report = check_linfty(bad, 1)
    assert not report.passed
    assert report.failures == ((1, (q,), Element.from_basis(r)),)


def test_triple_bracket_identity_has_content_only_at_arity_five():
    passing = triple_bracket_structure((1, 2))
    report = check_linfty(passing, 5)
    assert report.passed

    failing = triple_bracket_structure((4, 5))
    report = check_linfty(failing, 5)
    assert not report.passed
    assert {n for n, _, _ in report.failures} == {5}
    a = failing.basis[:5]
    assert report.failures[0][1] == a
    assert not check_linfty(failing, 4).failures


# ------------------------------------------------ unpruned identity oracle

def unpruned_identity_residual(L, inputs):
    """The identity sweep over every splitting: the oracle for the pruned one.

    Every k from 1 to n, every unshuffle, the inner bracket through
    ``apply`` on ``Element`` inputs, whether or not the structure has
    tensors of the two arities.
    """
    n = len(inputs)
    parities = [b.parity for b in inputs]
    residual = Element.zero()
    for k in range(1, n + 1):
        for left, right, sign in unshuffles(parities, k):
            inner = L.apply(k, [Element.from_basis(inputs[i]) for i in left])
            if inner.is_zero:
                continue
            outer_args = [inner] + [Element.from_basis(inputs[j]) for j in right]
            term = L.apply(n - k + 1, outer_args)
            if not term.is_zero:
                residual = residual + sign * term
    return residual


def unpruned_report(L, n_max):
    """``check_linfty`` over the unpruned sweep, with every tuple's residual."""
    if L.convention == MATH:
        L = convert_conventions(L)
    residuals = [(n, tup, unpruned_identity_residual(L, tup))
                 for n in range(1, n_max + 1)
                 for tup in itertools.combinations_with_replacement(L.basis, n)]
    failures = tuple(entry for entry in residuals if not entry[2].is_zero)
    report = IdentityCheckReport(
        n_max=n_max,
        checked=len(residuals),
        failures=failures,
        jacobi_checked=sum(1 for n, _, _ in residuals if n == 3),
        jacobi_failures=tuple((tup, res) for n, tup, res in failures if n == 3),
    )
    return L, residuals, report


def random_oracle_structure(rng, convention):
    """A small structure with brackets of arity 1 (the differential) to 4.

    The first basis element is odd in the physics grading, so the sweep
    meets repeated odd inputs.  Tensor entries are drawn at random, so
    most structures fail some identity.
    """
    math = convention == MATH
    dim = rng.randint(2, 4)
    degrees = [rng.randint(-1, 2) for _ in range(dim)]
    degrees[0] = 0 if math else 1
    basis = tuple(BasisElement(f"e{i}", d) for i, d in enumerate(degrees, 1))
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b.degree, []).append(b)

    def element_in_degree(d):
        coeffs = {b: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
                  for b in by_degree.get(d, []) if rng.random() < 0.7}
        return Element(coeffs)

    # a repeated input survives the symmetry only when swapping it is +1
    repeatable = {b for b in basis if b.parity == (1 if math else 0)}
    tensors = {1: {(b,): element_in_degree(b.degree + (1 if math else -1))
                   for b in basis if rng.random() < 0.5}}
    for n in (2, 3, 4):
        shift = 2 - n if math else -1
        keys = [key for key in itertools.combinations_with_replacement(basis, n)
                if not any(a == b and a not in repeatable for a, b in zip(key, key[1:]))]
        rng.shuffle(keys)
        tensors[n] = {key: element_in_degree(sum(b.degree for b in key) + shift)
                      for key in keys[:rng.randint(0, 4)]}
    return LInftyStructure(basis, tensors, convention=convention)


def test_pruned_identity_sweep_matches_the_unpruned_oracle():
    rng = random.Random(20261018)
    structures = [random_oracle_structure(rng, rng.choice((PHYSICS, PHYSICS, MATH)))
                  for _ in range(100)]
    structures += [so3_structure(), sl2_structure(), broken_jacobi_structure(),
                   convert_conventions(so3_structure()),
                   triple_bracket_structure((1, 2)), triple_bracket_structure((4, 5))]
    seen = {"math": 0, "failing": 0, "passing": 0,
            "repeated odd": 0, 1: 0, 2: 0, 3: 0, 4: 0}
    for L in structures:
        n_max = 5
        physics, residuals, expected = unpruned_report(L, n_max)
        for _, tup, residual in residuals:
            assert identity_residual(physics, tup) == residual, (L, tup)
            # inputs out of basis order reach the reordering signs
            if rng.random() > 0.3:
                continue
            shuffled = tuple(rng.sample(tup, len(tup)))
            assert (identity_residual(physics, shuffled)
                    == unpruned_identity_residual(physics, shuffled)), (L, shuffled)
        report = check_linfty(L, n_max)
        assert report == expected
        assert report.checked == identity_tuple_count(len(L.basis), n_max)
        seen["math"] += L.convention == MATH
        seen["failing"] += not report.passed
        seen["passing"] += report.passed
        seen["repeated odd"] += any(b.parity and tup.count(b) > 1
                                    for _, tup, _ in residuals for b in tup)
        for n in L.arities():
            seen[n] += 1
    assert min(seen.values()) >= 5, seen


def test_pruned_sweep_skips_compositions_without_tensors():
    L = so3_structure()
    calls = []

    class Counting(LInftyStructure):
        def apply(self, n, args):
            calls.append(n)
            return super().apply(n, args)

    counting = Counting(L.basis, L.tensors)
    a, b, c = L.basis
    assert identity_residual(counting, (a, b, c)).is_zero
    assert calls == [2, 2, 2]
    calls.clear()
    assert identity_residual(counting, (a, b, c, a)).is_zero
    assert calls == []


def test_sweep_bound_refuses_before_enumerating(monkeypatch):
    basis = tuple(BasisElement(f"e{i}", 1) for i in range(18))
    L = LInftyStructure(basis=basis)
    assert identity_tuple_count(18, 7) == 480699 <= MAX_IDENTITY_TUPLES
    assert identity_tuple_count(18, 8) == 1562274 > MAX_IDENTITY_TUPLES

    def refuse(*args):
        raise AssertionError("a tuple was enumerated")

    monkeypatch.setattr("bvforge.linfty.identity_residual", refuse)
    monkeypatch.setattr("bvforge.linfty.itertools.combinations_with_replacement", refuse)
    with pytest.raises(ValueError, match="1562274"):
        check_linfty(L, 8)
    with pytest.raises(ValueError, match="1562274"):
        check_linfty(convert_conventions(L), 8)


def test_identity_tuple_count_matches_the_enumeration():
    for dim in range(0, 5):
        basis = tuple(BasisElement(f"e{i}", 0) for i in range(dim))
        for n_max in range(1, 5):
            enumerated = sum(
                1 for n in range(1, n_max + 1)
                for _ in itertools.combinations_with_replacement(basis, n))
            assert identity_tuple_count(dim, n_max) == enumerated


# ---------------------------------------------------------------- conversion

def test_conversion_reflects_degrees_and_bracket_degree():
    L = so3_structure()
    M = convert_conventions(L)
    assert M.convention == MATH
    assert all(b.degree == 0 for b in M.basis)
    assert M.bracket_degree(2) == 0
    assert M.bracket_degree(3) == -1
    assert L.bracket_degree(2) == -1


def test_conversion_round_trip_is_identity():
    rng = random.Random(20261019)
    randoms = [random_oracle_structure(rng, convention)
               for convention in (PHYSICS, MATH) for _ in range(20)]
    # the random structures carry a differential in both conventions
    assert {L.convention for L in randoms if 1 in L.tensors} == {PHYSICS, MATH}
    for L in (so3_structure(), sl2_structure(), broken_jacobi_structure(),
              triple_bracket_structure((4, 5)), *randoms):
        back = convert_conventions(convert_conventions(L))
        assert back == L
        assert check_linfty(back, 3).failures == check_linfty(L, 3).failures


def test_converted_lie_algebra_is_antisymmetric_and_checks_out():
    M = convert_conventions(so3_structure())
    e1, e2, _ = M.basis
    forward = M.apply(2, [Element.from_basis(e1), Element.from_basis(e2)])
    backward = M.apply(2, [Element.from_basis(e2), Element.from_basis(e1)])
    assert forward == -1 * backward
    assert check_linfty(M, 4).passed


def test_converted_differential_still_squares_to_zero():
    p = BasisElement("p", 0)
    q = BasisElement("q", 1)
    L = LInftyStructure(basis=(p, q), tensors={1: {(q,): Element.from_basis(p)}})
    M = convert_conventions(L)
    assert M.convention == MATH
    assert check_linfty(M, 1).passed


def test_triple_bracket_conversion_degree():
    L = triple_bracket_structure((1, 2))
    M = convert_conventions(L)
    key = next(iter(M.tensors[3]))
    out = next(iter(M.tensors[3][key].support()))
    assert out.degree == sum(b.degree for b in key) + (2 - 3)


# ---------------------------------------------------------------- deformations

def even_pairing_structure():
    m1 = BasisElement("m1", 0)
    m2 = BasisElement("m2", 0)
    e = BasisElement("e", -1)
    tensor = {
        (m1, m1): Element.from_basis(e),
        (m1, m2): Element.from_basis(e, 2),
    }
    return LInftyStructure(basis=(m1, m2, e), tensors={2: tensor})


def test_mc_residual_of_closed_element_vanishes():
    p = BasisElement("p", 0)
    q = BasisElement("q", 1)
    w = BasisElement("w", 0)
    L = LInftyStructure(basis=(p, q, w), tensors={1: {(q,): Element.from_basis(w)}})
    theta = {1: Element.from_basis(p), 2: Element.from_basis(p, 3)}
    residuals = mc_residual(L, theta, 4)
    assert set(residuals) == {1, 2, 3, 4}
    assert all(r.is_zero for r in residuals.values())


def test_mc_residual_shows_primary_obstruction():
    L = even_pairing_structure()
    m1, m2, e = L.basis
    residuals = mc_residual(L, {1: Element.from_basis(m1)}, 3)
    assert residuals[1].is_zero
    assert residuals[2] == Element.from_basis(e, Fraction(1, 2))
    assert residuals[3].is_zero


def test_mc_residual_collects_cross_terms():
    L = even_pairing_structure()
    m1, m2, e = L.basis
    theta = {1: Element.from_basis(m1), 2: Element.from_basis(m2)}
    residuals = mc_residual(L, theta, 3)
    assert residuals[2] == Element.from_basis(e, Fraction(1, 2))
    # order three mixes the two components through both argument orders
    assert residuals[3] == Element.from_basis(e, 2)


def test_mc_residual_of_zero_is_zero():
    residuals = mc_residual(even_pairing_structure(), {}, 3)
    assert all(r.is_zero for r in residuals.values())


# The oracle for ``mc_residual``: the earlier evaluation, which added
# d(theta_m) apart from the brackets of arity 2 and up, and gated the
# degree of theta on the sign of swapping an element with itself.
def split_mc_residual(L, theta, order):
    degrees = {c.homogeneous_degree() for c in theta.values() if not c.is_zero}
    for d in degrees:
        swap = -1 if d % 2 else 1
        if (swap if L.convention == PHYSICS else -swap) != 1:
            raise DegreeMismatch(f"degree {d} elements cannot repeat inside these brackets")
    out = {}
    for m in range(1, order + 1):
        residual = Element.zero()
        direct = theta.get(m)
        if direct is not None and not direct.is_zero:
            residual = residual + L.apply(1, [direct])
        for n in range(2, m + 1):
            if n not in L.tensors:
                continue
            acc = Element.zero()
            for powers in linfty._compositions(m, n):
                args = [theta.get(p) for p in powers]
                if any(a is None or a.is_zero for a in args):
                    continue
                acc = acc + L.apply(n, args)
            if not acc.is_zero:
                residual = residual + Fraction(1, factorial(n)) * acc
        out[m] = residual
    return out


def test_mc_residual_matches_the_split_oracle():
    rng = random.Random(20261020)
    seen = {"differential term": 0, "bracket term": 0, "refused": 0, "math": 0}
    for _ in range(400):
        math = rng.random() < 0.5
        L = random_oracle_structure(rng, MATH if math else PHYSICS)
        # theta mostly sits where inputs may repeat (even in physics, odd in
        # math), often in the one degree of every input of some bracket key
        degrees = sorted({b.degree for b in L.basis})
        repeatable = [d for d in degrees if d % 2 == math]
        keyed = [d for d in repeatable for table in L.tensors.values() for key in table
                 if len(key) > 1 and {b.degree for b in key} == {d}]
        if keyed and rng.random() < 0.5:
            d = rng.choice(keyed)
        else:
            d = rng.choice(repeatable if repeatable and rng.random() < 0.8 else degrees)
        slots = [b for b in L.basis if b.degree == d]
        theta = {}
        for power in rng.sample((1, 2, 3), rng.randint(1, 3)):
            theta[power] = Element({b: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
                                    for b in slots})
        if d % 2 != math:
            with pytest.raises(DegreeMismatch):
                split_mc_residual(L, theta, 4)
            with pytest.raises(DegreeMismatch):
                mc_residual(L, theta, 4)
            seen["refused"] += 1
            continue
        expected = split_mc_residual(L, theta, 4)
        assert mc_residual(L, theta, 4) == expected, (L, theta)
        differential_only = {m: L.apply(1, [theta[m]]) if m in theta else Element.zero()
                             for m in expected}
        seen["math"] += math
        seen["differential term"] += any(not r.is_zero for r in differential_only.values())
        seen["bracket term"] += expected != differential_only
    assert min(seen.values()) >= 20, seen


def test_mc_residual_degree_gates():
    L = even_pairing_structure()
    m1, m2, e = L.basis
    with pytest.raises(DegreeMismatch):
        mc_residual(L, {1: Element.from_basis(e)}, 2)
    with pytest.raises(DegreeMismatch):
        mc_residual(L, {1: Element.from_basis(m1) + Element.from_basis(e)}, 2)
    with pytest.raises(DegreeMismatch):
        mc_residual(L, {1: Element.from_basis(BasisElement("alien", 0))}, 2)
    so3 = so3_structure()
    with pytest.raises(DegreeMismatch):
        mc_residual(so3, {1: Element.from_basis(so3.basis[0])}, 2)


# ---------------------------------------------------------------- misc

def test_element_arithmetic():
    m = BasisElement("m", 0)
    w = BasisElement("w", 2)
    x = Element({m: Fraction(1, 2), w: Fraction(-1)})
    y = Element.from_basis(m, Fraction(1, 2))
    assert (x - y).items() == ((w, Fraction(-1)),)
    assert (2 * y).coefficient(m) == 1
    assert x.homogeneous_degree() is None
    assert y.homogeneous_degree() == 0
    assert Element.zero().is_zero


def test_element_refuses_floats_and_strings():
    b = BasisElement("b", 0)
    with pytest.raises(TypeError):
        Element.from_basis(b, 0.1)
    with pytest.raises(TypeError):
        Element({b: "1/3"})
    with pytest.raises(TypeError):
        Element({b: 1.0})


def test_element_scalar_multiplication_is_exact():
    b = BasisElement("b", 0)
    x = Element.from_basis(b)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        0.5 * x
    with pytest.raises(TypeError):
        x * "2"
    assert (x * Fraction(1, 2)).coefficient(b) == Fraction(1, 2)
    assert (3 * x).coefficient(b) == 3
    assert (0 * x).is_zero
    assert Element.from_basis(b, 0).is_zero
    assert Element({b: 0}).is_zero
    assert (x + -x).is_zero
    assert isinstance(Element({b: 2}).coefficient(b), Fraction)


def test_report_is_deterministic():
    r1 = check_linfty(broken_jacobi_structure(), 3)
    r2 = check_linfty(broken_jacobi_structure(), 3)
    assert r1 == r2
    assert isinstance(r1, IdentityCheckReport)
