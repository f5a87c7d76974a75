"""Randomized property-test harnesses for the antibracket and the Laplacian,
the check of the coefficient contract, and the per-candidate lift system.

Each harness draws random homogeneous local functions over a three-pair
finite model from a fixed seed and checks an identity exactly, so a
failure reproduces verbatim.  The tests import them from here; the
library itself samples nothing at random.

``match_coefficients`` and ``per_candidate_lift_system`` build the lift's
linear system the way the package did before it lifted one generic
ansatz: one kt column and one functional projection per candidate,
matched column by column.  They are the oracle of that ansatz.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from pathlib import Path
from typing import Callable, Iterable, Sequence

from bvforge.algebra import Factors, LocalFunction, antifield, antighost, field, ghost, term_key
from bvforge.bracket import antibracket, bv_laplacian
from bvforge.jet import functional_parts
from bvforge.master import BVAction, correction_candidates, kt_differential


@dataclass(frozen=True)
class HarnessFailure:
    identity: str
    sample_index: int
    inputs: tuple[LocalFunction, ...]
    lhs: LocalFunction
    rhs: LocalFunction


@dataclass(frozen=True)
class HarnessReport:
    samples: int
    checks: int
    failures: tuple[HarnessFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


_HARNESS_POOL = (
    field("1"), antifield("1"),
    field("2"), antifield("2"),
    ghost("1"), antighost("1"),
)


def _random_homogeneous(rng: random.Random) -> LocalFunction:
    """A nonzero local function whose terms share one parity."""

    def mono() -> LocalFunction:
        k = rng.randint(0, 3)
        flat = [rng.choice(_HARNESS_POOL) for _ in range(k)]
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return LocalFunction.from_terms([(tuple((g, 1) for g in flat), coeff)])

    f = mono()
    while f.is_zero:
        f = mono()
    if rng.random() < 0.5:
        parity = f.parity()
        for _ in range(8):
            extra = mono()
            if extra.is_zero or extra.parity() != parity:
                continue
            candidate = f + extra
            if not candidate.is_zero and candidate.parity() == parity:
                f = candidate
            break
    return f


Bracket = Callable[[LocalFunction, LocalFunction], LocalFunction]


def gerstenhaber_harness(
    samples: int = 1000,
    bracket: Bracket | None = None,
    seed: int = 20260816,
) -> HarnessReport:
    """Check antisymmetry, the graded Jacobi identity, and the Leibniz
    rule of the bracket against the product, on random homogeneous
    triples over a three-pair finite model.

    The degree shifts match the implemented grading, under which the
    bracket raises ghost number by one.  Sample zero is the degenerate
    constant triple.  Counterexamples are reported verbatim.
    """
    br = bracket if bracket is not None else partial(antibracket, spatial_dim=0)
    rng = random.Random(seed)
    failures: list[HarnessFailure] = []
    checks = 0
    one = LocalFunction.one()
    for idx in range(samples):
        if idx == 0:
            f = g = h = one
        else:
            f = _random_homogeneous(rng)
            g = _random_homogeneous(rng)
            h = _random_homogeneous(rng)
        pf, pg = f.parity(), g.parity()

        lhs = br(f, g)
        sign = -1 if ((pf + 1) * (pg + 1)) % 2 else 1
        rhs = sign * -br(g, f)
        checks += 1
        if lhs != rhs:
            failures.append(HarnessFailure("antisymmetry", idx, (f, g), lhs, rhs))

        lhs = br(f, br(g, h))
        sign = -1 if ((pf + 1) * (pg + 1)) % 2 else 1
        rhs = br(br(f, g), h) + sign * br(g, br(f, h))
        checks += 1
        if lhs != rhs:
            failures.append(HarnessFailure("jacobi", idx, (f, g, h), lhs, rhs))

        lhs = br(f, g * h)
        sign = -1 if ((pf + 1) * pg) % 2 else 1
        rhs = br(f, g) * h + sign * (g * br(f, h))
        checks += 1
        if lhs != rhs:
            failures.append(HarnessFailure("leibniz", idx, (f, g, h), lhs, rhs))
    return HarnessReport(samples=samples, checks=checks, failures=tuple(failures))


def bv_identity_harness(samples: int = 500, seed: int = 20260817) -> HarnessReport:
    """Check that the Laplacian generates the bracket:

    (A, B) = (-1)^{|A|} D(AB) - (-1)^{|A|} D(A) B - A D(B)

    on random homogeneous pairs, exactly.
    """
    rng = random.Random(seed)
    failures: list[HarnessFailure] = []
    checks = 0
    one = LocalFunction.one()
    for idx in range(samples):
        if idx == 0:
            a = b = one
        else:
            a = _random_homogeneous(rng)
            b = _random_homogeneous(rng)
        sign = -1 if a.parity() else 1
        lhs = antibracket(a, b, 0)
        rhs = sign * bv_laplacian(a * b) - sign * (bv_laplacian(a) * b) - a * bv_laplacian(b)
        checks += 1
        if lhs != rhs:
            failures.append(HarnessFailure("bv-compatibility", idx, (a, b), lhs, rhs))
    return HarnessReport(samples=samples, checks=checks, failures=tuple(failures))


def assert_ints_when_integral(coefficients: Iterable) -> Counter:
    """Check that every stored coefficient is an ``int`` exactly when it is
    integral and a ``Fraction`` otherwise, never a bool or a float; count
    the coefficients of each type."""
    seen: Counter = Counter()
    for c in coefficients:
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)
        seen[type(c).__name__] += 1
    return seen


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


def per_candidate_lift_system(m, S: BVAction, R: LocalFunction, stratum: int):
    """The (equations, rhs) of the lift of R at ``stratum``, as
    ``master._solve_lift`` built them with one kt column per candidate:
    the sides cleared of denominators, each column projected on its own
    through ``functional_parts``, and the parts matched block by block."""
    candidates = correction_candidates(m, stratum + 1)
    half_R = Fraction(-1, 2) * R
    scale = lcm(*(c.denominator for f in (S.stratum(0), S.stratum(1), half_R)
                  for _, c in f.terms()))
    cleared = BVAction.from_total(scale * S.total, S.spatial_dim, S.solved_up_to)
    kt_cols = [kt_differential(cleared, cand) for cand in candidates]
    parts = [functional_parts(f, m.spatial_dim) for f in (scale * half_R, *kt_cols)]
    zero = LocalFunction.zero()
    return match_coefficients([(parts[0].get(z, zero), [col.get(z, zero) for col in parts[1:]])
                               for z in sorted(set().union(*parts))])


def bench_models():
    """The benchmark's seeded job generator, ``bench/models.py``, as a module."""
    module = sys.modules.get("bench_models")
    if module is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "models.py"
        spec = importlib.util.spec_from_file_location("bench_models", path)
        module = sys.modules["bench_models"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module
