"""Antibrackets and the BV Laplacian.

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

from .algebra import Generator, LocalFunction, graded_partial, sum_of
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
