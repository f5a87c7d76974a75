"""Exact linear algebra over the rationals.

One sparse Gaussian elimination backs every solver in the package.  Its
answer does not depend on the order in which rows are reduced: the
pivot columns are the greedy leftmost independent columns (column j is
a pivot exactly when it is not in the span of columns 0..j-1), every
free variable is set to zero, and the remaining unknowns are then fixed
by the system itself, because the reduced row echelon form of a matrix
is unique.  So the solution vector is a function of the system alone.

``match_coefficients`` turns an identity between local functions with
unknown coefficients into such a system, one equation per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import Factors, LocalFunction, add_terms, term_key


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
    column, scaled by the ``Fraction`` inverse of its leading entry, so
    no integer division ever yields a float, and each integral entry is
    kept as an int.  Every pivot row is zero left
    of its pivot, so back-substitution from the highest pivot down
    yields the solution.
    """
    if len(equations) != len(rhs):
        raise ValueError("one right-hand side per equation required")
    n = num_unknowns
    pivots: dict[int, dict[int, Fraction]] = {}
    for eq, b in zip(equations, rhs):
        row: dict[int, Fraction] = {}
        for j, c in eq.items():
            if not 0 <= j < n:
                raise ValueError(f"unknown index {j} outside 0..{n - 1}")
            if c:
                row[j] = c
        if b:
            row[n] = b
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
        inverse = 1 / Fraction(row[lead])
        pivots[lead] = pivot_row = {}
        for k, v in row.items():
            v *= inverse
            pivot_row[k] = v.numerator if v.denominator == 1 else v

    values = [Fraction(0)] * n
    for col in sorted(pivots, reverse=True):
        pivot_row = pivots[col]
        values[col] = Fraction(pivot_row.get(n, 0)) - sum(
            v * values[k] for k, v in pivot_row.items() if col < k < n)
    rank = len(pivots)
    return LinearSolution(tuple(values), nullity=n - rank, rank=rank)


def match_coefficients(
    blocks: Iterable[tuple[LocalFunction, Sequence[LocalFunction]]],
) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """The equations of sum_j x_j columns[j] = target in every block.

    Each block is a (target, columns) pair, column j standing for the
    unknown x_j.  A block contributes one equation per monomial that
    occurs in its target or in any of its columns, in the canonical
    monomial order.  Every column's terms are walked once.  Returns the
    (equations, rhs) pair that ``solve_linear_system`` takes.
    """
    equations: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for target, columns in blocks:
        rows: dict[Factors, dict[int, Fraction]] = {fac: {} for fac, _ in target.terms()}
        for j, col in enumerate(columns):
            for fac, coeff in col.terms():
                rows.setdefault(fac, {})[j] = coeff
        value = dict(target.terms()).get
        for fac in sorted(rows, key=term_key):
            equations.append(rows[fac])
            rhs.append(value(fac, 0))
    return equations, rhs
