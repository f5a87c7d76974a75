"""Antibrackets, the BV Laplacian, and property-test harnesses.

The odd bracket pairs each field with its antifield and each ghost with
its antighost.  Two regimes are provided: a pointwise bracket for
finite (dimension-zero) models, where partial derivatives suffice, and
a variational bracket for jet models, where the derivatives are Euler
operators and equalities downstream are judged modulo total
divergences.  The bracket raises ghost number by one: (u, u*) = 1 lands
in ghost number 0 = 0 + (-1) + 1.

The Laplacian sign convention is fixed once by the compatibility
identity

    (A, B) = (-1)^{|A|} D(AB) - (-1)^{|A|} D(A) B - A D(B)

with D the Laplacian; the regression value D(u u*) = +1 freezes the
choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import (
    Generator,
    LocalFunction,
    antifield,
    antighost,
    field,
    ghost,
    graded_partial,
    sum_of,
)
from .expr import format_generator
from .jet import families, variational_derivative


class JetModelRequiresVariationalBracket(ValueError):
    """The pointwise bracket saw a prolonged generator."""


class JetModelUnsupported(ValueError):
    """The Laplacian is defined on finite models only."""


def family_pairs(*fs: LocalFunction) -> list[tuple[Generator, Generator]]:
    """Unprolonged (z, z*) representatives for each family appearing:
    the field pairs by family, then the ghost pairs by family."""
    sides = sorted({z if z.antifield_number == 0 else z.conjugate() for z in families(*fs)})
    return [(z, z.conjugate()) for z in sides]


def _require_finite(f: LocalFunction, err: type[ValueError], what: str) -> None:
    prolonged = [g for g in f.generators() if g.jet]
    if prolonged:
        raise err(f"{what} requires an unprolonged model; found {format_generator(min(prolonged))}")


def _antibracket(f: LocalFunction, g: LocalFunction, derivative) -> LocalFunction:
    """sum over pairs (z, z*) of dR f/dz * dL g/dz* - dR f/dz* * dL g/dz,
    with ``derivative(f, z, side)`` the graded partial or Euler operator."""
    terms = []
    for z, zs in family_pairs(f, g):
        terms.append(derivative(f, z, "right") * derivative(g, zs, "left"))
        terms.append(-(derivative(f, zs, "right") * derivative(g, z, "left")))
    return sum_of(terms)


def antibracket_pointwise(f: LocalFunction, g: LocalFunction) -> LocalFunction:
    """The odd bracket on a finite model, summed over conjugate pairs.

    (f, g) = sum over pairs (z, z*) of
    dR f/dz * dL g/dz* - dR f/dz* * dL g/dz.
    """
    _require_finite(f, JetModelRequiresVariationalBracket, "the pointwise bracket")
    _require_finite(g, JetModelRequiresVariationalBracket, "the pointwise bracket")
    return _antibracket(f, g, graded_partial)


def antibracket_variational(f: LocalFunction, g: LocalFunction) -> LocalFunction:
    """The bracket on jet models, with Euler operators in place of partials.

    The result is one canonical local function; downstream equalities
    between brackets of functionals hold modulo total divergences.
    Every term carries a variational derivative of each argument, so any
    argument that is itself a total divergence yields zero exactly.
    """
    return _antibracket(f, g, variational_derivative)


def antibracket(f: LocalFunction, g: LocalFunction, spatial_dim: int) -> LocalFunction:
    """Dispatch on the model dimension: pointwise at zero, variational above."""
    if spatial_dim == 0:
        return antibracket_pointwise(f, g)
    return antibracket_variational(f, g)


def bv_laplacian(f: LocalFunction) -> LocalFunction:
    """Second-order odd Laplacian on finite models.

    D f = sum over pairs (z, z*) of (-1)^{|z|} dL/dz (dL f/dz*).
    """
    _require_finite(f, JetModelUnsupported, "the Laplacian")
    return sum_of((-1) ** z.parity * graded_partial(graded_partial(f, zs, "left"), z, "left")
                  for z, zs in family_pairs(f))


# ------------------------------------------------------------- harnesses

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
    br = bracket if bracket is not None else antibracket_pointwise
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
        lhs = antibracket_pointwise(a, b)
        rhs = sign * bv_laplacian(a * b) - sign * (bv_laplacian(a) * b) - a * bv_laplacian(b)
        checks += 1
        if lhs != rhs:
            failures.append(HarnessFailure("bv-compatibility", idx, (a, b), lhs, rhs))
    return HarnessReport(samples=samples, checks=checks, failures=tuple(failures))
