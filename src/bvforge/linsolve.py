"""Exact linear algebra over the rationals.

One sparse Gaussian elimination backs every solver in the package.  Its
answer does not depend on the order in which rows are reduced: the
pivot columns are the greedy leftmost independent columns (column j is
a pivot exactly when it is not in the span of columns 0..j-1), every
free variable is set to zero, and the remaining unknowns are then fixed
by the system itself, because the reduced row echelon form of a matrix
is unique.  So the solution vector is a function of the system alone.

An ``ansatz`` sum_j a_j X_j is one local function: each unknown a_j is
an even base coordinate ``#j`` that names no direction, so no derivative
reaches it, and ``match_unknowns`` reads the equations off its image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import Factors, Generator, GeneratorKind, LocalFunction, add_terms


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution plus the dimension of the homogeneous space."""

    values: tuple[Fraction, ...]
    nullity: int
    rank: int


def solve_linear_system(
    equations: Sequence[Mapping[int, Fraction]],
    rhs: Sequence[Fraction],
    num_unknowns: int,
) -> LinearSolution | None:
    """Solve A x = b exactly; return None when the system is inconsistent.

    Each equation is a sparse row mapping unknown index to coefficient.
    The returned particular solution sets every free variable to zero.

    Rows are kept as dicts, with the entries as they come in.  Each
    incoming row, augmented by its right-hand side under the key
    ``num_unknowns``, is reduced against the monic pivot rows until its
    leading column has no pivot; it then becomes the pivot row of that
    column, divided by its leading entry: an integral quotient of ints
    stays an int, any other is a ``Fraction``, never a float.  A row equal
    to one taken before is skipped, since it would reduce to zero or its
    first copy already proved the system inconsistent.  Every pivot row
    is zero left of its pivot, so back-substitution from the highest
    pivot down, over the nonzero unknowns, yields the solution.
    """
    if len(equations) != len(rhs):
        raise ValueError("one right-hand side per equation required")
    n = num_unknowns
    pivots: dict[int, dict[int, Fraction]] = {}
    taken: set[tuple] = set()
    for eq, b in zip(equations, rhs):
        row: dict[int, Fraction] = {}
        for j, c in eq.items():
            if not 0 <= j < n:
                raise ValueError(f"unknown index {j} outside 0..{n - 1}")
            if c:
                row[j] = c
        if b:
            row[n] = b
        if (key := tuple(row.items())) in taken:
            continue
        taken.add(key)
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                break
            factor = -row[lead]
            add_terms(row, ((k, factor * v) for k, v in pivot_row.items()))
        if not row:
            continue
        if lead == n:
            return None
        c = row[lead]
        pivots[lead] = pivot_row = {}
        for k, v in row.items():
            if v.__class__ is int is c.__class__ and not v % c:
                pivot_row[k] = v // c
            else:
                v = Fraction(v, c)
                pivot_row[k] = v.numerator if v.denominator == 1 else v

    values = [0] * n
    for col in sorted(pivots, reverse=True):
        pivot_row = pivots[col]
        values[col] = pivot_row.get(n, 0) - sum(
            v * values[k] for k, v in pivot_row.items() if col < k < n and values[k])
    rank = len(pivots)
    return LinearSolution(tuple(map(Fraction, values)), nullity=n - rank, rank=rank)


def unknown(j: int) -> Generator:
    """The unknown a_j, labelled ``#j``: it sorts before every direction,
    so it leads each monomial it is a factor of."""
    return Generator(GeneratorKind.BASE, f"#{j}")


def ansatz(columns: Sequence[LocalFunction]) -> LocalFunction:
    """sum_j a_j columns[j], for columns free of unknowns."""
    return LocalFunction({((unknown(j), 1),) + fac: c for j, col in enumerate(columns)
                          for fac, c in col.terms()}, _internal=True)


def match_unknowns(
    target: Mapping[object, LocalFunction], generic: Mapping[object, LocalFunction],
) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """The (equations, rhs) of generic = target, part by part in the order
    of the part keys, each generic term holding one unknown a_j to the
    first power, as the image of an ``ansatz`` does.  A part gives one
    equation per monomial of its target or, stripped of its unknown, of
    its generic side, in the term order, its unknowns ascending.
    """
    equations: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for z in sorted(target.keys() | generic.keys()):
        value = dict(target[z].terms()) if z in target else {}
        rows: dict[Factors, dict[int, Fraction]] = {fac: {} for fac in value}
        for fac, coeff in generic[z].terms() if z in generic else ():
            rows.setdefault(fac[1:], {})[int(fac[0][0].family[1:])] = coeff
        for fac in sorted(rows):
            equations.append(dict(sorted(rows[fac].items())))
            rhs.append(value.get(fac, 0))
    return equations, rhs
