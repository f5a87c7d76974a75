"""Bracket extraction, identity checks, and deformations."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

import pytest

from bvforge import cli, linfty
from bvforge.algebra import (Generator, LocalFunction, antifield, antighost, field, gen,
                             ghost, graded_partial, inversion_parity, sum_of,
                             term_bidegree)
from bvforge.bracket import JetModelUnsupported, antibracket, bv_laplacian
from bvforge.cli import run_command
from bvforge.expr import format_generator
from bvforge.jet import ModelSpec
from bvforge.linfty import (
    MAX_IDENTITY_TUPLES,
    BasisElement,
    DegreeMismatch,
    Element,
    IdentityCheckReport,
    InsufficientStrata,
    LInftyStructure,
    check_linfty,
    extract_brackets,
    identity_residual,
    identity_tuple_count,
    mc_residual,
)
from bvforge.master import BVAction, build_stage_action, solve_master
from bvforge.modelfile import parse_document, print_model
from harnesses import assert_ints_when_integral
from shared import EPS, FIXTURES, HALF, full_so3_model, ghost_so3_model, open_algebra_model


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

def unshuffles(parities: Sequence[int], k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield the monotone (k, n-k) splittings of positions with Koszul signs.

    The sign is that of reordering the positions ``left + right`` back to
    ascending order: the inversion parity of their odd entries.
    """
    n = len(parities)
    odd = [i for i in range(n) if parities[i] % 2]
    for left in itertools.combinations(range(n), k):
        right = tuple(i for i in range(n) if i not in left)
        flips = len(odd) > 1 and inversion_parity([i for i in left + right if i in odd])
        yield left, right, -1 if flips else 1


@functools.lru_cache(maxsize=1024)
def splits(parities: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """``unshuffles(parities, k)`` as a tuple, enumerated once per
    (parity pattern, k): the identity sweep meets each pattern over and
    over."""
    return tuple(unshuffles(parities, k))


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
# Each adjacent swap of distinct inputs a, b costs the Koszul sign.

def bubble_canonical(L, tup):
    items = list(tup)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            a, b = items[j], items[j + 1]
            if L._index[a] > L._index[b]:
                sign *= -1 if a.parity and b.parity else 1
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
    """The tuples on which ``canonical`` and the bubble sort disagree."""
    L = LInftyStructure(SIGN_BASIS)
    return [t for t in sign_tuples() if canonical(L, t) != bubble_canonical(L, t)]


def test_canonical_matches_the_bubble_sort_oracle():
    assert canonical_mismatches(LInftyStructure._canonical) == []
    # the sample repeats entries, mixes parities and needs real reordering
    tuples = sign_tuples()
    assert sum(len(set(t)) < len(t) for t in tuples) >= 100
    assert sum(sum(b.parity for b in t) >= 2 for t in tuples) >= 100
    L = LInftyStructure(SIGN_BASIS)
    assert {bubble_canonical(L, t)[1] for t in tuples} == {1, -1}


def test_canonical_mutant_without_the_koszul_sign_is_caught():
    # the inputs sorted into basis order, every reordering signed +1
    def unsigned(L, tup):
        return tuple(sorted(tup, key=L._index.__getitem__)), 1
    L = LInftyStructure(SIGN_BASIS)
    # exactly the reorderings with an odd number of odd-past-odd swaps are missed
    negative = [t for t in sign_tuples() if bubble_canonical(L, t)[1] == -1]
    assert negative
    assert canonical_mismatches(unsigned) == negative


def test_unshuffles_match_the_crossing_oracle_on_every_split():
    for n in range(7):
        for parities in itertools.product((0, 1), repeat=n):
            for k in range(n + 1):
                assert list(unshuffles(parities, k)) == list(crossing_unshuffles(parities, k))


# ---------------------------------------------------------------- structure

def test_basis_elements_hash_as_their_name_and_degree():
    a, b = BasisElement("a", 1), BasisElement("a", 1)
    assert a == b and hash(a) == hash(b) == hash(("a", 1))
    assert a != BasisElement("a", 2) and a != BasisElement("b", 1)
    assert {a: 1}[b] == 1 and len({a, b, BasisElement("a", 3)}) == 2
    assert repr(a) == "a:1" and a.parity == 1


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
    )


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


def pruned_identity_residual(L, inputs):
    """The identity sweep tuple by tuple: the oracle for the table read.

    Only the compositions the structure can make nonzero are evaluated.
    The k-blocks are visited only when arity k and arity n - k + 1 both
    carry a tensor, and a block whose canonical key has no entry in the
    arity-k tensor is passed over.  Every term left out is a bracket taken
    where the structure has no entry, so it is exactly zero and the
    residual is the same as the sum over every splitting.  On basis
    inputs the inner bracket is the tensor entry of the block's canonical
    key times its reordering sign, read off without calling ``apply``.
    """
    n = len(inputs)
    parities = tuple(b.parity for b in inputs)
    residual = Element.zero()
    for k in range(1, n + 1):
        if k not in L.tensors or n - k + 1 not in L.tensors:
            continue
        inner_table = L.tensors[k]
        for left, right, sign in splits(parities, k):
            key, key_sign = L._canonical(tuple(inputs[i] for i in left))
            inner = inner_table.get(key)
            if inner is None:
                continue
            outer_args = ([inner if key_sign == 1 else -inner]
                          + [Element.from_basis(inputs[j]) for j in right])
            term = L.apply(n - k + 1, outer_args)
            if not term.is_zero:
                residual = residual + sign * term
    return residual


def split_identity_table(L, n):
    """The arity-n identity table with each weight counted off the
    unshuffles: the oracle for the closed-form weight.

    The compositions are those of ``LInftyStructure._identity_table``;
    each is added to T = sorted(K + R) times the sum of the signs of the
    unshuffles of T whose left block is K.
    """
    sums = {}
    for k in range(1, n + 1):
        m = n - k + 1
        if k not in L.tensors or m not in L.tensors:
            continue
        rests = {}
        for key in L.tensors[m]:
            for i, b in enumerate(key):
                rests.setdefault(b, {})[key[:i] + key[i + 1:]] = None
        for K, v in L.tensors[k].items():
            reached = dict.fromkeys(itertools.chain.from_iterable(
                rests.get(b, ()) for b in v.support()))
            for rest in reached:
                term = L.apply(m, [v, *map(Element.from_basis, rest)])
                if term.is_zero:
                    continue
                T = tuple(sorted(K + rest, key=L._index.__getitem__))
                weight = sum(sign for left, _, sign in splits(tuple(b.parity for b in T), k)
                             if tuple(T[i] for i in left) == K)
                if weight:
                    sums[T] = sums.get(T, Element.zero()) + weight * term
    return {T: value for T, value in sums.items() if not value.is_zero}


def oracle_report(L, n_max, oracle):
    """``check_linfty`` over an oracle's sweep, with every tuple's residual."""
    residuals = [(n, tup, oracle(L, tup))
                 for n in range(1, n_max + 1)
                 for tup in itertools.combinations_with_replacement(L.basis, n)]
    failures = tuple(entry for entry in residuals if not entry[2].is_zero)
    report = IdentityCheckReport(
        n_max=n_max,
        checked=len(residuals),
        failures=failures,
    )
    return residuals, report


# ------------------------------------------------ the mathematics grading
# Lie algebras, and much of the literature on these structures, use the
# grading in which l_n has degree 2 - n and a repeated even input kills a
# bracket (Lada-Stasheff, hep-th/9209099).  bvforge computes in the
# physics grading only; these two converters are the test-side bridge.
# Degrees reflect as d -> 1 - d, and each tensor entry takes the
# suspension sign built from the physics degrees of its inputs.

def suspension_sign(physics_degrees):
    n = len(physics_degrees)
    exponent = sum((n - 1 - i) * d for i, d in enumerate(physics_degrees))
    return -1 if exponent % 2 else 1


def reflect(b):
    return BasisElement(b.name, 1 - b.degree)


def reflected(value, sign):
    return sign * Element({reflect(b): c for b, c in value.items()})


def math_to_physics(basis, tensors):
    """The physics ``LInftyStructure`` of a math-graded basis and tensor table."""
    return LInftyStructure(
        tuple(map(reflect, basis)),
        {n: {tuple(map(reflect, key)): reflected(value, suspension_sign([1 - b.degree for b in key]))
             for key, value in table.items()}
         for n, table in tensors.items()})


def physics_to_math(L):
    """The math-graded basis and tensor table of L: ``math_to_physics`` undone."""
    return (tuple(map(reflect, L.basis)),
            {n: {tuple(map(reflect, key)): reflected(value, suspension_sign([b.degree for b in key]))
                 for key, value in table.items()}
             for n, table in L.tensors.items()})


def random_oracle_table(rng, math):
    """A small basis and tensor table with brackets of arity 1 (the
    differential) to 4, in the mathematics grading when ``math`` is true.

    The first basis element is odd in the physics grading, so the sweep
    meets repeated odd inputs.  Tensor entries are drawn at random, so
    most structures fail some identity.
    """
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
    return basis, tensors


def physics_structure(math, basis, tensors):
    """The physics structure of a table drawn in either grading."""
    return math_to_physics(basis, tensors) if math else LInftyStructure(basis, tensors)


def oracle_structures(rng):
    """100 seeded random structures and six by hand, each with whether it
    was drawn in the mathematics grading."""
    cases = []
    for _ in range(100):
        math = rng.choice((False, False, True))
        cases.append((physics_structure(math, *random_oracle_table(rng, math)), math))
    return cases + [(so3_structure(), False), (sl2_structure(), False),
                    (broken_jacobi_structure(), False),
                    (math_to_physics(*physics_to_math(so3_structure())), True),
                    (triple_bracket_structure((1, 2)), False),
                    (triple_bracket_structure((4, 5)), False)]


def test_pruned_identity_sweep_matches_the_unpruned_oracle():
    # the table read against both oracles: the unpruned sweep over every
    # splitting and the pruned sweep it replaced
    rng = random.Random(20261018)
    cases = oracle_structures(rng)
    seen = {"math": 0, "failing": 0, "passing": 0,
            "repeated odd": 0, 1: 0, 2: 0, 3: 0, 4: 0}
    for L, math in cases:
        n_max = 5
        residuals, expected = oracle_report(L, n_max, unpruned_identity_residual)
        for _, tup, residual in residuals:
            assert identity_residual(L, tup) == residual == pruned_identity_residual(L, tup), \
                (L, tup)
            # inputs out of basis order reach the reordering signs
            if rng.random() > 0.3:
                continue
            shuffled = tuple(rng.sample(tup, len(tup)))
            assert (identity_residual(L, shuffled)
                    == unpruned_identity_residual(L, shuffled)
                    == pruned_identity_residual(L, shuffled)), (L, shuffled)
        report = check_linfty(L, n_max)
        assert report == expected
        assert report.checked == identity_tuple_count(len(L.basis), n_max)
        seen["math"] += math
        seen["failing"] += not report.passed
        seen["passing"] += report.passed
        seen["repeated odd"] += any(b.parity and tup.count(b) > 1
                                    for _, tup, _ in residuals for b in tup)
        for n in L.arities():
            seen[n] += 1
    assert min(seen.values()) >= 5, seen

    # every fixture's structure: each tuple against the pruned sweep, a
    # sample of shuffled tuples against both (the unpruned sweep on every
    # arity-5 tuple of gl(3) would take seconds)
    for name in FINITE_FIXTURES:
        L = extract_brackets(fixture_action(name), 5)
        n_max = max(n for n in range(1, 6)
                    if identity_tuple_count(len(L.basis), n) <= MAX_IDENTITY_TUPLES)
        residuals, expected = oracle_report(L, n_max, pruned_identity_residual)
        for _, tup, residual in residuals:
            assert identity_residual(L, tup) == residual, (name, tup)
        for _, tup, _ in rng.sample(residuals, min(len(residuals), 150)):
            shuffled = tuple(rng.sample(tup, len(tup)))
            assert (identity_residual(L, shuffled)
                    == unpruned_identity_residual(L, shuffled)
                    == pruned_identity_residual(L, shuffled)), (name, shuffled)
        assert check_linfty(L, n_max) == expected


def test_identity_weights_match_the_unshuffle_count():
    # the closed-form weight against the signed count of the unshuffles,
    # table by table, on the structures of the sweep oracle and every fixture
    structures = [L for L, _ in oracle_structures(random.Random(20261018))]
    structures += [extract_brackets(fixture_action(name), 5) for name in FINITE_FIXTURES]
    seen = Counter()
    for L in structures:
        for n in range(1, 6):
            table = L._identity_table(n)
            assert table == split_identity_table(L, n), (L, n)
            seen["repeated even"] += sum(any(a == b for a, b in zip(T, T[1:])) for T in table)
            seen[n] += bool(table)
    assert min(seen[n] for n in range(1, 6)) >= 5 and seen["repeated even"] >= 20, seen


# ------------------------------------------------ the all-Fraction oracle
# The structure's arithmetic carried out in Fractions throughout, the oracle
# for the int coefficients: each product starts from Fraction(sign), no sum
# is reduced to an int, and every vanishing tuple makes its own zero Element.

def fraction_coefficient(value):
    """``coerce_coefficient`` with every exact value kept as a ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def fraction_add_terms(data, pairs):
    """``add_terms`` with every sum kept as it comes out, integral ``Fraction``s included."""
    for key, c in pairs:
        old = data.get(key)
        if old is not None:
            c = old + c
        if c:
            data[key] = c
        elif old is not None:
            del data[key]
    return data


def fraction_apply(self, n, args):
    """``LInftyStructure.apply`` with each product started from ``Fraction(sign)``."""
    if len(args) != n:
        raise ValueError(f"arity {n} bracket applied to {len(args)} inputs")
    table = self.tensors.get(n, {})
    out = {}
    for combo in itertools.product(*(arg._coeffs.items() for arg in args)):
        key, sign = self._canonical(tuple(b for b, _ in combo))
        value = table.get(key)
        if value is None:
            continue
        coeff = Fraction(sign)
        for _, c in combo:
            coeff *= c
        fraction_add_terms(out, ((b, coeff * c) for b, c in value._coeffs.items()))
    return Element(out, _internal=True)


def fraction_identity_residual(L, inputs):
    """``identity_residual`` with a fresh zero ``Element`` for each vanishing tuple."""
    table = L._identity_tables.get(len(inputs))
    if table is None:
        table = L._identity_table(len(inputs))
    if not table:
        return Element.zero()
    key, sign = L._canonical(tuple(inputs))
    value = table.get(key)
    if value is None:
        return Element.zero()
    return value if sign == 1 else -value


def sweep_arity(L):
    """The highest arity through 5 whose sweep stays under the tuple bound."""
    return max(n for n in range(1, 6)
               if identity_tuple_count(len(L.basis), n) <= MAX_IDENTITY_TUPLES)


def coefficients(elements):
    return (c for element in elements for _, c in element.items())


def test_the_fraction_oracle_gives_equal_tables_residuals_and_reports(monkeypatch):
    structures = [L for L, _ in oracle_structures(random.Random(20261018))]
    structures += [extract_brackets(fixture_action(name), 5) for name in FINITE_FIXTURES]
    oracles = []
    with monkeypatch.context() as patch:
        patch.setattr(linfty, "coerce_coefficient", fraction_coefficient)
        patch.setattr(linfty, "add_terms", fraction_add_terms)
        patch.setattr(LInftyStructure, "apply", fraction_apply)
        patch.setattr(linfty, "identity_residual", fraction_identity_residual)
        for L in structures:
            F = LInftyStructure(L.basis, {
                n: {key: Element(dict(value.items())) for key, value in table.items()}
                for n, table in L.tensors.items()})
            n_max = sweep_arity(L)
            tables = [F._identity_table(n) for n in range(1, n_max + 1)]
            residuals, _ = oracle_report(F, n_max, fraction_identity_residual)
            oracles.append((F, tables, residuals, check_linfty(F, n_max)))
    seen = Counter()
    for L, (F, tables, residuals, report) in zip(structures, oracles):
        # the oracle computed in Fractions throughout
        values = [v for t in (*F.tensors.values(), *tables) for v in t.values()]
        assert all(type(c) is Fraction for c in coefficients(values))
        assert F.tensors == L.tensors
        for n, table in enumerate(tables, 1):
            assert L._identity_table(n) == table, (L, n)
        for n, tup, residual in residuals:
            assert identity_residual(L, tup) == residual, (L, tup)
        assert check_linfty(L, report.n_max) == report
        seen["failing"] += not report.passed
        seen["integral"] += any(c.denominator == 1 for c in coefficients(values))
        seen["fractional"] += any(c.denominator != 1 for c in coefficients(values))
    assert min(seen.values()) >= 5, seen


def test_elements_and_brackets_store_ints_exactly_when_integral():
    rng = random.Random(20261020)
    b, c = BasisElement("b", 0), BasisElement("c", 0)
    x = Element({b: Fraction(4, 2), c: Fraction(1, 2)})
    y = Element.from_basis(c, Fraction(3, 2))
    elements = [x, y, x + y, x - y, -x, x * Fraction(2), Fraction(2, 3) * y, True * x,
                Element.from_basis(b, True), Element({b: True, c: 3})]
    seen = assert_ints_when_integral(coefficients(elements))
    assert (x + y).items() == ((b, 2), (c, 2))
    structures = [L for L, _ in oracle_structures(rng)]
    structures += [extract_brackets(fixture_action(name), 5) for name in FINITE_FIXTURES]
    for L in structures:
        seen += assert_ints_when_integral(coefficients(
            v for table in L.tensors.values() for v in table.values()))
        for n in range(1, sweep_arity(L) + 1):
            seen += assert_ints_when_integral(coefficients(L._identity_table(n).values()))
        # a Maurer-Cartan point in an even degree, where inputs may repeat
        even = [b for b in L.basis if b.degree % 2 == 0]
        if even:
            d = rng.choice(even).degree
            theta = {p: Element({b: Fraction(rng.choice((-2, 1, 4)), rng.randint(1, 2))
                                 for b in L.basis if b.degree == d}) for p in (1, 2)}
            seen += assert_ints_when_integral(coefficients(mc_residual(L, theta, 4).values()))
    assert seen["int"] > 300 and seen["Fraction"] > 100, seen


def test_vanishing_residuals_are_one_shared_zero():
    L = broken_jacobi_structure()
    vanishing = [tup for n in range(1, 5)
                 for tup in itertools.combinations_with_replacement(L.basis, n)
                 if identity_residual(L, tup).is_zero]
    assert len(vanishing) > 10
    assert len({id(identity_residual(L, tup)) for tup in vanishing}) == 1
    assert not check_linfty(L, 4).passed


def test_pruned_sweep_skips_compositions_without_tensors():
    L = so3_structure()
    calls = []

    class Counting(LInftyStructure):
        def apply(self, n, args):
            calls.append(n)
            return super().apply(n, args)

    # one composition per inner entry and distinct rest: an outer key that
    # holds a basis element of the entry's value, with that element taken out
    expected = Counter()
    for n in range(1, 5):
        for k in range(1, n + 1):
            m = n - k + 1
            if k not in L.tensors or m not in L.tensors:
                continue
            for value in L.tensors[k].values():
                rests = {key[:i] + key[i + 1:] for key in L.tensors[m]
                         for i, b in enumerate(key) if b in value.support()}
                expected[m] += len(rests)
    assert expected == {2: 6}

    counting = Counting(L.basis, L.tensors)
    assert check_linfty(counting, 4).passed
    assert Counter(calls) == expected
    calls.clear()
    assert check_linfty(counting, 4).passed
    assert calls == []

    a, b, c = L.basis
    assert identity_residual(Counting(L.basis, L.tensors), (a, b, c, a)).is_zero
    assert calls == []


def test_identities_job_fires_the_benchmark_probes(monkeypatch):
    # the benchmark traces these two bindings on check-linfty -n 4 over gl(3)
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linfty, "identity_residual",
                        counted("identity_residual", linfty.identity_residual))
    monkeypatch.setattr(LInftyStructure, "apply", counted("apply", LInftyStructure.apply))
    status, out = run_command(["check-linfty", str(FIXTURES / "gl3.bv"), "-n", "4"])
    assert (status, out) == (0, "identities checked = 7314\nPASS\n")
    assert calls["identity_residual"] == identity_tuple_count(18, 4) == 7314
    assert calls["apply"] >= 1


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
    basis, tensors = physics_to_math(L)
    assert all(b.degree == 0 for b in basis)
    # the arity-n bracket sits in degree 2 - n in the mathematics grading
    for key, value in tensors[2].items():
        assert value.homogeneous_degree() == sum(b.degree for b in key) + (2 - 2)
    for key, value in L.tensors[2].items():
        assert value.homogeneous_degree() == sum(b.degree for b in key) - 1


def test_conversion_round_trip_is_identity():
    rng = random.Random(20261019)
    randoms = [(math, random_oracle_table(rng, math))
               for math in (False, True) for _ in range(20)]
    # the random tables carry a differential in both gradings
    assert {math for math, (_, tensors) in randoms
            if any(not value.is_zero for value in tensors[1].values())} == {False, True}
    for math, (basis, tensors) in randoms:
        if not math:
            continue
        nonzero = {n: {key: value for key, value in table.items() if not value.is_zero}
                   for n, table in tensors.items()}
        expected = {n: table for n, table in nonzero.items() if table}
        assert physics_to_math(math_to_physics(basis, tensors)) == (basis, expected)
    physics = [physics_structure(math, *table) for math, table in randoms]
    for L in (so3_structure(), sl2_structure(), broken_jacobi_structure(),
              triple_bracket_structure((4, 5)), *physics):
        back = math_to_physics(*physics_to_math(L))
        assert back == L
        assert check_linfty(back, 3).failures == check_linfty(L, 3).failures


def test_converted_lie_algebra_is_antisymmetric_and_checks_out():
    # sl(2) as the textbooks write it: degree 0, antisymmetric constants
    h, e, f = (BasisElement(name, 0) for name in ("h", "e", "f"))
    L = math_to_physics((h, e, f), {2: {
        (h, e): Element.from_basis(e, 2),
        (h, f): Element.from_basis(f, -2),
        (e, f): Element.from_basis(h)}})
    assert all(b.degree == 1 for b in L.basis)
    p, q, _ = L.basis
    forward = L.apply(2, [Element.from_basis(p), Element.from_basis(q)])
    backward = L.apply(2, [Element.from_basis(q), Element.from_basis(p)])
    assert forward == -1 * backward
    assert not forward.is_zero
    assert check_linfty(L, 4).passed


def test_converted_differential_still_squares_to_zero():
    # a cochain differential of degree +1: x -> y in the mathematics grading
    x, y, z = BasisElement("x", 0), BasisElement("y", 1), BasisElement("z", 2)
    L = math_to_physics((x, y, z), {1: {(x,): Element.from_basis(y)}})
    assert check_linfty(L, 1).passed
    chain = math_to_physics((x, y, z), {1: {(x,): Element.from_basis(y),
                                            (y,): Element.from_basis(z)}})
    assert not check_linfty(chain, 1).passed


def test_triple_bracket_conversion_degree():
    basis, tensors = physics_to_math(triple_bracket_structure((1, 2)))
    key = next(iter(tensors[3]))
    out = next(iter(tensors[3][key].support()))
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


def compositions(total, parts):
    """Ordered tuples of positive integers with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# The oracle for ``mc_residual`` that sums apply over the compositions of
# each power: the evaluation before the tensor table was read at theta(t).
def composition_mc_residual(L, theta, order):
    out = {}
    for m in range(1, order + 1):
        residual = Element.zero()
        for n in range(1, m + 1):
            if n not in L.tensors:
                continue
            acc = Element.zero()
            for powers in compositions(m, n):
                args = [theta.get(p) for p in powers]
                if any(a is None or a.is_zero for a in args):
                    continue
                acc = acc + L.apply(n, args)
            if not acc.is_zero:
                residual = residual + Fraction(1, factorial(n)) * acc
        out[m] = residual
    return out


# The earlier oracle for ``mc_residual``, which added d(theta_m) apart from
# the brackets of arity 2 and up, and gated the degree of theta on the sign
# of swapping an element with itself.
def split_mc_residual(L, theta, order):
    degrees = {c.homogeneous_degree() for c in theta.values() if not c.is_zero}
    for d in degrees:
        if d % 2:
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
            for powers in compositions(m, n):
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
        L = physics_structure(math, *random_oracle_table(rng, math))

        # theta is drawn in the grading the table was drawn in
        def degree(b):
            return 1 - b.degree if math else b.degree
        # theta mostly sits where inputs may repeat (even in physics, odd in
        # math), often in the one degree of every input of some bracket key
        degrees = sorted({degree(b) for b in L.basis})
        repeatable = [d for d in degrees if d % 2 == math]
        keyed = [d for d in repeatable for table in L.tensors.values() for key in table
                 if len(key) > 1 and {degree(b) for b in key} == {d}]
        if keyed and rng.random() < 0.5:
            d = rng.choice(keyed)
        else:
            d = rng.choice(repeatable if repeatable and rng.random() < 0.8 else degrees)
        slots = [b for b in L.basis if degree(b) == d]
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
        assert mc_residual(L, theta, 4) == expected == composition_mc_residual(L, theta, 4), \
            (L, theta)
        differential_only = {m: L.apply(1, [theta[m]]) if m in theta else Element.zero()
                             for m in expected}
        seen["math"] += math
        seen["differential term"] += any(not r.is_zero for r in differential_only.values())
        seen["bracket term"] += expected != differential_only
    assert min(seen.values()) >= 20, seen


# A dimension-0 model whose cubic and quartic lagrangian brings l_2 and l_3
# into the residual: (S, u*[1]) = 3 u[1]^2 + 2 u[1] u[2]^2.
CUBIC_QUARTIC = """\
dimension 0
fields 1 2
lagrangian u[1]^3 + u[1]^2*u[2]^2
deformation
  t^1 = u[1] + 2*u[2]
  t^2 = -u[2]
  t^4 = 1/3*u[1] - u[2]
"""


def seeded_mc_documents() -> list[str]:
    """Six seeded deformation documents over each finite fixture, and CUBIC_QUARTIC.

    Most deformations sit on fields or antighosts (degrees 0 and -2); the
    last of each six sits on antifields or ghosts, an odd degree that the
    residual refuses.
    """
    rng = random.Random(20261021)
    docs = []
    for name in FINITE_FIXTURES:
        spec = parse_document((FIXTURES / f"{name}.bv").read_text(encoding="utf-8")).spec
        for i in range(6):
            makers = [field] * bool(spec.fields) + [antighost] * bool(spec.gauge_indices)
            if i == 5:
                makers = [antifield] if spec.fields else [ghost]
            make = rng.choice(makers)
            families = spec.fields if make in (field, antifield) else spec.gauge_indices
            deformation = {}
            for power in rng.sample(range(1, 5), rng.randint(1, 3)):
                chosen = sorted(rng.sample(families, rng.randint(1, len(families))))
                deformation[power] = sum_of(
                    Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) * gen(make(f))
                    for f in chosen)
            docs.append(print_model(spec, deformation))
    return docs + [CUBIC_QUARTIC]


# recorded before ``mc_residual`` evaluated the tensor table at theta(t): each
# (document, flags, exit status, output) enters the digest NUL-separated
MC_REPORTS_DIGEST = "e40a88c3dd4f7986005ccbc62c332872df13dc1abad7836ced5a1863bfee8710"


def test_seeded_mc_reports_keep_their_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_solved_action", memoized(cli._solved_action))
    digest = hashlib.sha256()
    statuses = Counter()
    for i, text in enumerate(seeded_mc_documents()):
        path = tmp_path / f"doc{i}.bv"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--format", "structured"], ["-n", "1"], ["-n", "4"]):
            status, out = run_command(["mc", str(path), *flags])
            statuses[status] += 1
            digest.update(f"{i}\0{' '.join(flags)}\0{status}\0{out}\0".encode("utf-8"))
    assert set(statuses) == {0, 1, 2}, statuses
    assert digest.hexdigest() == MC_REPORTS_DIGEST


def minus_q_at_minus_theta(S: BVAction, theta, order):
    """-[t^p] Q(-theta(t)) for p = 1..order, keyed by basis name.

    Q^g = (S, g), which is -dR S/dg* for a field or ghost and +dR S/dg*
    for an antifield or antighost, is a polynomial in the generators.
    Each generator z is put to the exact t-series -theta_z(t) =
    -sum_p theta[p][z] t^p, truncated past ``order``; a generator that
    theta does not hold, every odd one among them, is put to zero.
    """
    point = {}
    for p, component in theta.items():
        for z, c in component.items():
            if p <= order:
                point.setdefault(z, [Fraction(0)] * (order + 1))[p] = -c
    out = {p: {} for p in range(1, order + 1)}
    for g in sorted({h for z in S.total.generators() for h in (z, z.conjugate())}):
        value = [Fraction(0)] * (order + 1)
        for factors, c in antibracket(S.total, gen(g), 0).terms():
            if not all(z in point for z, _ in factors):
                continue
            series = [Fraction(c)] + [Fraction(0)] * order
            for z, e in factors:
                for _ in range(e):
                    series = [sum(series[i] * point[z][m - i] for i in range(m + 1))
                              for m in range(order + 1)]
            value = [a + b for a, b in zip(value, series)]
        for p in out:
            if value[p]:
                out[p][format_generator(g)] = -value[p]
    return out


def q_point_cases():
    """(label, action, theta) over every finite fixture, CUBIC_QUARTIC and
    40 random actions; theta is seeded on the fields or on the antighosts,
    the two even degrees, with powers up to 4."""
    rng = random.Random(20261022)
    actions = [(name, fixture_action(name)) for name in FINITE_FIXTURES]
    actions.append(("cubic quartic", solve_master(parse_document(CUBIC_QUARTIC).spec, 3)[0]))
    actions += [(f"random {i}", S) for i, S in enumerate(random_actions()[:40])]
    cases = []
    for label, S in actions:
        gens = sorted(S.total.generators())
        for kind in ("u", "Cstar"):
            slots = [g for g in gens if g.kind.value == kind]
            for _ in range(3 if slots else 0):
                theta = {p: {z: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
                             for z in rng.sample(slots, rng.randint(1, len(slots)))}
                         for p in rng.sample(range(1, 5), rng.randint(1, 3))}
                cases.append((label, S, theta))
    return cases


def test_mc_residual_is_minus_q_at_minus_theta():
    # the master equation's vector field Q = (S, .) and the tensor table
    # give one residual: the zeros of Q are the Maurer-Cartan elements
    mismatches, reached = [], Counter()
    for label, S, theta in q_point_cases():
        L = extract_brackets(S, 4)
        by_name = {b.name: b for b in L.basis}
        elements = {p: Element({by_name[format_generator(z)]: c for z, c in component.items()})
                    for p, component in theta.items()}
        for order in range(1, 5):
            residual = mc_residual(L, elements, order)
            expected = minus_q_at_minus_theta(S, theta, order)
            got = {p: {b.name: c for b, c in value.items()} for p, value in residual.items()}
            if got != expected:
                mismatches.append((label, theta, order))
            reached["nonzero"] += any(expected.values())
            # a bracket of arity 2 or more reaches the residual
            linear = {p: {b.name: c for b, c in L.apply(1, [elements[p]]).items()}
                      if p in elements else {} for p in expected}
            reached["bracket"] += expected != linear
    assert mismatches == []
    assert reached["nonzero"] >= 100 and reached["bracket"] >= 50, reached


# ------------------------------------------------ two roads to one verdict

def lie_brackets(name):
    """Structure constants {(i, j): {k: c}} of [e_i, e_j] = sum_k c e_k, i < j."""
    if name == "so3":
        return {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    if name == "aff1":
        return {(0, 1): {1: 1}}
    # gl(2) on E11, E12, E21, E22: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    out = {}
    for x, (i, j) in enumerate(units):
        for y, (k, l) in enumerate(units[x + 1:], x + 1):
            value = Counter()
            if j == k:
                value[units.index((i, l))] += 1
            if l == i:
                value[units.index((k, j))] -= 1
            out[(x, y)] = {z: c for z, c in value.items() if c}
    return out


def rational_inverse(P):
    """The inverse of a square Fraction matrix, or None when it is singular."""
    n = len(P)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def changed_basis(brackets, dim, rng):
    """The structure constants in the basis e'_i = sum_a P[a][i] e_a, for a
    seeded invertible rational P."""
    while True:
        P = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
             for _ in range(dim)]
        inverse = rational_inverse(P)
        if inverse is not None:
            break
    full = {}
    for (a, b), value in brackets.items():
        full[(a, b)] = value
        full[(b, a)] = {c: -x for c, x in value.items()}
    out = {}
    for i, j in itertools.combinations(range(dim), 2):
        value = {}
        for k in range(dim):
            c = sum(inverse[k][m] * P[a][i] * P[b][j] * x
                    for (a, b), image in full.items() for m, x in image.items())
            if c:
                value[k] = c
        out[(i, j)] = value
    return out


def jacobi_holds(brackets, dim):
    """Whether [[e_i, e_j], e_l] summed cyclically vanishes on every triple."""
    def bracket(i, j):
        if i == j:
            return {}
        if i < j:
            return brackets.get((i, j), {})
        return {k: -c for k, c in brackets.get((j, i), {}).items()}
    for i, j, l in itertools.combinations(range(dim), 3):
        total = Counter()
        for x, y, z in ((i, j, l), (j, l, i), (l, i, j)):
            for k, c in bracket(x, y).items():
                for m, d in bracket(k, z).items():
                    total[m] += c * d
        if any(total.values()):
            return False
    return True


def seeded_lie_models():
    """(label, structure constants, dim): four seeded changes of basis each of
    so(3), gl(2) and the two-dimensional non-abelian algebra, and a copy of
    each with one structure constant moved by 1."""
    rng = random.Random(20261023)
    models = []
    for name, dim in (("so3", 3), ("gl2", 4), ("aff1", 2)):
        for copy in range(4):
            brackets = changed_basis(lie_brackets(name), dim, rng)
            models.append((f"{name} {copy}", brackets, dim))
            moved = {pair: dict(value) for pair, value in brackets.items()}
            pair = rng.choice(sorted(moved))
            k = rng.randrange(dim)
            moved[pair][k] = moved[pair].get(k, 0) + 1
            models.append((f"{name} {copy} moved", moved, dim))
    return models


def test_master_equation_and_identities_agree_on_seeded_lie_algebras(tmp_path):
    # solve lifts (S, S) through the antibracket; check-linfty reads the
    # extracted brackets; the Jacobi sum is computed here, apart from both
    verdicts = Counter()
    for label, brackets, dim in seeded_lie_models():
        names = tuple(str(i + 1) for i in range(dim))
        structure = {(names[k], names[i], names[j]): LocalFunction.constant(c)
                     for (i, j), value in brackets.items() for k, c in value.items() if c}
        spec = ModelSpec(spatial_dim=0, fields=(), gauge_indices=names,
                         lagrangian=LocalFunction.zero(), structure_functions=structure)
        path = tmp_path / "lie.bv"
        path.write_text(print_model(spec), encoding="utf-8")
        solved, solve_out = run_command(["solve", str(path), "-K", "3"])
        checked, check_out = run_command(["check-linfty", str(path), "-n", "3"])
        holds = jacobi_holds(brackets, dim)
        assert {solved, checked} <= {0, 1}, (label, solve_out, check_out)
        assert (solved == 0) == (checked == 0) == holds, (label, solve_out, check_out)
        if not holds:
            assert "residual[obstruction[2]] = " in solve_out, (label, solve_out)
            failures = [line for line in check_out.splitlines() if line.startswith("residual")]
            assert failures and all(line.startswith("residual[identity[n=3; ")
                                    for line in failures), (label, check_out)
        verdicts[("moved" in label, holds)] += 1
    assert verdicts[(False, True)] == 12, verdicts
    assert verdicts[(True, False)] >= 3 and verdicts[(True, True)] >= 3, verdicts


def test_laplacian_of_a_lie_action_is_the_trace_of_ad(tmp_path):
    # Delta S = sum_j tr(ad e_j) C^j, and Jacobi gives (S, S) = 0, so qme
    # passes exactly on the unimodular algebras
    path = tmp_path / "lie.bv"
    verdicts = Counter()
    for label, brackets, dim in seeded_lie_models():
        if not jacobi_holds(brackets, dim):
            continue
        names = tuple(str(i + 1) for i in range(dim))
        structure = {(names[k], names[i], names[j]): LocalFunction.constant(c)
                     for (i, j), value in brackets.items() for k, c in value.items() if c}
        spec = ModelSpec(spatial_dim=0, fields=(), gauge_indices=names,
                         lagrangian=LocalFunction.zero(), structure_functions=structure)
        # tr(ad e_j) = sum_k c^k_{jk}, with the table holding i < j only
        traces = [sum(brackets.get((j, k), {}).get(k, 0) - brackets.get((k, j), {}).get(k, 0)
                      for k in range(dim)) for j in range(dim)]
        S = solve_master(spec, 3)[0].total
        assert bv_laplacian(S) == sum_of(t * gen(ghost(names[j])) for j, t in enumerate(traces)), label
        path.write_text(print_model(spec), encoding="utf-8")
        status, out = run_command(["qme", str(path)])
        unimodular = not any(traces)
        assert status == (0 if unimodular else 1), (label, out)
        verdicts[label.split()[0], unimodular] += 1
    assert verdicts == {("so3", True): 4, ("gl2", True): 4, ("aff1", False): 8}, verdicts


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
