"""Exact linear solves: the sparse solver against the dense reference.

``dense_solve`` is the straightforward Fraction row reduction the
package used before the sparse solver.  It is kept here as the oracle:
both must agree on the solution vector, the rank and the nullity, or
both must report an inconsistent system.  The equations of a generic
ansatz are checked against ``harnesses.match_coefficients``, which
matches one column per unknown.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import bvforge.linsolve
import bvforge.master
from bvforge.algebra import GeneratorKind, LocalFunction, add_terms, antifield, base, field, ghost
from bvforge.linsolve import LinearSolution, ansatz, match_unknowns, solve_linear_system, unknown
from bvforge.master import solve_master
from bvforge.modelfile import parse_document
from harnesses import match_coefficients
from shared import OPEN_ALGEBRA_ON_A_LINE, documented_factors_key


def dense_solve(equations, rhs, num_unknowns):
    """Reference: dense Gauss-Jordan elimination, pivots in column order."""
    if len(equations) != len(rhs):
        raise ValueError("one right-hand side per equation required")
    rows = [
        [Fraction(eq.get(j, 0)) for j in range(num_unknowns)] + [Fraction(b)]
        for eq, b in zip(equations, rhs)
    ]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(num_unknowns):
        chosen = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    for r in range(pivot_row, len(rows)):
        if rows[r][num_unknowns] != 0:
            return None
    values = [Fraction(0)] * num_unknowns
    for r, col in enumerate(pivot_cols):
        values[col] = rows[r][num_unknowns]
    rank = len(pivot_cols)
    return LinearSolution(tuple(values), nullity=num_unknowns - rank, rank=rank)


def random_system(rng: random.Random):
    """A small sparse system, often rank deficient, sometimes inconsistent."""
    n = rng.randint(0, 7)
    integral = rng.random() < 0.3

    def coefficient():
        if integral:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    rows = []
    for _ in range(rng.randint(0, 6)):
        row = {j: coefficient() for j in range(n) if rng.random() < 0.4}
        rows.append({j: c for j, c in row.items() if c})
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        a, b = rng.choice(rows), rng.choice(rows)
        if rng.random() < 0.4:
            rows.append(dict(a))  # a duplicate row
            continue
        s, t = rng.randint(-2, 2), Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        combo = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in set(a) | set(b)}
        rows.append({j: c for j, c in combo.items() if c})
    if rng.random() < 0.2:
        rows.append({})
    rng.shuffle(rows)
    if rng.random() < 0.6:
        x0 = [coefficient() for _ in range(n)]
        rhs = [sum(c * x0[j] for j, c in row.items()) for row in rows]
    else:
        rhs = [coefficient() for _ in rows]
    return rows, rhs, n


def check_solution(equations, rhs, solution):
    assert all(isinstance(v, Fraction) for v in solution.values)
    for eq, b in zip(equations, rhs):
        assert sum(c * solution.values[j] for j, c in eq.items()) == b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_solver_agrees_with_the_dense_oracle(seed):
    rng = random.Random(seed)
    outcomes = {"inconsistent": 0, "deficient": 0, "full": 0}
    for _ in range(300):
        equations, rhs, n = random_system(rng)
        got = solve_linear_system(equations, rhs, n)
        assert got == dense_solve(equations, rhs, n)
        if got is None:
            outcomes["inconsistent"] += 1
            continue
        check_solution(equations, rhs, got)
        outcomes["deficient" if got.rank < min(len(equations), n) else "full"] += 1
    # the generator must exercise every outcome, not only the easy one
    assert min(outcomes.values()) >= 20, outcomes


def random_integer_system(rng: random.Random):
    """Up to 12 unknowns and 30 integer rows, entries in +-1..+-6, of which
    at least 30 % repeat an earlier row exactly, right-hand side included."""
    n = rng.randint(0, 12)
    size = rng.randint(2, 30)
    distinct = size - rng.randint(-(-3 * size // 10), size - 1)
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    consistent = rng.random() < 0.6
    rows = []
    for _ in range(distinct):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows)[0], rng.choice(rows)[0]
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            combo = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in range(n)}
            row = {j: c for j, c in combo.items() if c}
        else:
            row = {j: rng.choice((-1, 1)) * rng.randint(1, 6) for j in range(n) if rng.random() < 0.35}
        b = sum(c * x0[j] for j, c in row.items()) if consistent else rng.randint(-6, 6)
        rows.append((row, b))
    rows += [(dict(row), b) for row, b in (rng.choice(rows) for _ in range(size - distinct))]
    rng.shuffle(rows)
    return [row for row, _ in rows], [b for _, b in rows], n


def without_repeats(equations, rhs):
    """The system with every exact repeat of an earlier row dropped."""
    firsts = {}
    for row, b in zip(equations, rhs):
        firsts.setdefault((tuple(row.items()), b), (row, b))
    return [row for row, _ in firsts.values()], [b for _, b in firsts.values()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_systems_with_repeats_agree_with_the_dense_oracle(seed):
    rng = random.Random(seed)
    outcomes = {"inconsistent": 0, "deficient": 0, "full": 0}
    for _ in range(300):
        equations, rhs, n = random_integer_system(rng)
        distinct, distinct_rhs = without_repeats(equations, rhs)
        assert len(equations) - len(distinct) >= 0.3 * len(equations)
        got = solve_linear_system(equations, rhs, n)
        assert got == dense_solve(equations, rhs, n)
        assert got == solve_linear_system(distinct, distinct_rhs, n)
        if got is None:
            outcomes["inconsistent"] += 1
            continue
        check_solution(equations, rhs, got)
        outcomes["deficient" if got.rank < min(len(distinct), n) else "full"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_a_repeated_row_costs_no_reduction_step(monkeypatch):
    steps = []

    def counting(row, pairs):
        steps.append(1)
        return add_terms(row, pairs)

    monkeypatch.setattr(bvforge.linsolve, "add_terms", counting)
    rng = random.Random(3)
    for _ in range(100):
        equations, rhs, n = random_integer_system(rng)
        steps.clear()
        got = solve_linear_system(equations, rhs, n)
        repeated = len(steps)
        steps.clear()
        assert solve_linear_system(*without_repeats(equations, rhs), n) == got
        assert repeated == len(steps)


def test_row_order_does_not_change_the_solution():
    rng = random.Random(7)
    for _ in range(100):
        equations, rhs, n = random_system(rng)
        order = list(range(len(equations)))
        rng.shuffle(order)
        shuffled = solve_linear_system([equations[i] for i in order], [rhs[i] for i in order], n)
        assert shuffled == solve_linear_system(equations, rhs, n)


def test_free_variables_are_zero_and_pivots_are_leftmost():
    # x0 + x1 = 2 and 2 x0 + 2 x1 + x2 = 7: pivots 0 and 2, x1 free
    solution = solve_linear_system([{0: 1, 1: 1}, {0: 2, 1: 2, 2: 1}], [2, 7], 3)
    assert solution == LinearSolution((Fraction(2), Fraction(0), Fraction(3)), nullity=1, rank=2)


def test_duplicate_and_dependent_rows_lower_the_rank():
    equations = [{0: Fraction(1, 2), 1: 3}, {0: Fraction(1, 2), 1: 3}, {0: 1, 1: 6}]
    solution = solve_linear_system(equations, [1, 1, 2], 2)
    assert solution == LinearSolution((Fraction(2), Fraction(0)), nullity=1, rank=1)
    assert solve_linear_system(equations, [1, 1, 3], 2) is None


def test_zero_row_with_a_nonzero_right_hand_side_is_inconsistent():
    assert solve_linear_system([{0: 1}, {}], [1, Fraction(1, 3)], 1) is None
    assert solve_linear_system([{0: 1}, {0: 0}], [1, 0], 1) == LinearSolution(
        (Fraction(1),), nullity=0, rank=1)


def test_empty_systems():
    assert solve_linear_system([], [], 3) == LinearSolution((Fraction(0),) * 3, nullity=3, rank=0)
    assert solve_linear_system([], [], 0) == LinearSolution((), nullity=0, rank=0)
    assert solve_linear_system([{}, {}], [0, 0], 0) == LinearSolution((), nullity=0, rank=0)
    assert solve_linear_system([{}], [2], 0) is None


def test_integer_coefficients_give_exact_fractions():
    solution = solve_linear_system([{0: 3, 1: 1}, {1: 2}], [1, 1], 2)
    assert solution.values == (Fraction(1, 6), Fraction(1, 2))
    assert all(isinstance(v, Fraction) for v in solution.values)


def test_malformed_systems_are_rejected():
    with pytest.raises(ValueError):
        solve_linear_system([{0: 1}], [], 1)
    with pytest.raises(ValueError):
        solve_linear_system([{1: 1}], [0], 1)


# ------------------------------------------------- coefficient matching

BLOCK_POOL = [field("1"), field("2", (1,)), antifield("1"), ghost("1"), ghost("2")]


def random_block_function(rng: random.Random, pool=BLOCK_POOL) -> LocalFunction:
    terms = []
    for _ in range(rng.randint(0, 4)):
        factors = tuple((rng.choice(pool), 1) for _ in range(rng.randint(0, 3)))
        terms.append((factors, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return LocalFunction.from_terms(terms)


def lookup_assembly(blocks):
    """Reference: one row per monomial key, one coefficient lookup per column."""
    equations, rhs = [], []
    for target, columns in blocks:
        keys = {fac for src in [target, *columns] for fac, _ in src.sorted_terms()}
        for fac in sorted(keys, key=documented_factors_key):
            row = {j: col.coefficient(fac) for j, col in enumerate(columns) if col.coefficient(fac)}
            equations.append(row)
            rhs.append(target.coefficient(fac))
    return equations, rhs


def test_match_coefficients_builds_the_lookup_system():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 5)
        blocks = [(random_block_function(rng), [random_block_function(rng) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
        equations, rhs = match_coefficients(blocks)
        assert (equations, rhs) == lookup_assembly(blocks)
        assert [list(row) for row in equations] == [sorted(row) for row in equations]


def test_match_coefficients_finds_the_combination():
    a, b = LocalFunction.from_generator(field("1")), LocalFunction.from_generator(field("2", (1,)))
    target = Fraction(3) * a - Fraction(1, 2) * b
    solution = solve_linear_system(*match_coefficients([(target, [a, b, a + b])]), 3)
    assert solution.values == (Fraction(3), Fraction(-1, 2), Fraction(0))
    assert solution.nullity == 1
    assert solve_linear_system(*match_coefficients([(target, [a, a])]), 2) is None


def test_unknowns_are_even_shared_and_lead_every_monomial():
    for j in (0, 1, 12, 281):
        a = unknown(j)
        assert a is unknown(j) and a.kind is GeneratorKind.BASE and a.family == f"#{j}"
        assert a.parity == 0 and a.bidegree == (0, 0)
        assert all(a < g for g in [base(1), base(2), *BLOCK_POOL])


def test_generic_equations_are_the_column_equations():
    # the image of an ansatz, stripped of its unknowns, gives the system
    # that one column per unknown gives, row for row and key for key
    rng = random.Random(12)
    pool = [base(1), *BLOCK_POOL]
    for _ in range(200):
        n = rng.randint(0, 5)
        blocks = [(random_block_function(rng, pool), [random_block_function(rng, pool) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
        assert ansatz(blocks[0][1]) == sum(
            (LocalFunction.from_generator(unknown(j)) * col for j, col in enumerate(blocks[0][1])),
            LocalFunction.zero())
        # parts keyed like ``functional_parts``: the nonzero ones only
        equations, rhs = match_unknowns(
            {i: target for i, (target, _) in enumerate(blocks) if target},
            {i: ansatz(columns) for i, (_, columns) in enumerate(blocks) if ansatz(columns)})
        expected, expected_rhs = match_coefficients(blocks)
        assert [list(row.items()) for row in equations] == [list(row.items()) for row in expected]
        assert rhs == expected_rhs
        assert [list(row) for row in equations] == [sorted(row) for row in equations]


def test_open_algebra_on_a_line_keeps_its_system(monkeypatch):
    sizes = []

    def spy(equations, rhs, num_unknowns):
        solution = solve_linear_system(equations, rhs, num_unknowns)
        sizes.append((len(equations), num_unknowns, sum(map(len, equations)),
                      solution.rank, solution.nullity))
        return solution

    monkeypatch.setattr(bvforge.master, "solve_linear_system", spy)
    m = parse_document(OPEN_ALGEBRA_ON_A_LINE).spec
    final, records = solve_master(m, 3)
    assert [record.ansatz_dimensions for record in records] == [(282, 59)]
    assert sizes == [(1750, 282, 2648, 223, 59)]
    assert final.residual_report == {}
