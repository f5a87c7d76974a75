"""Antibrackets and the BV Laplacian.

The odd bracket pairs each field with its antifield and each ghost with
its antighost.  There is one bracket, and it reads the regime off the
spatial dimension: a finite model is the dimension-zero case, where
graded partials suffice; on a jet model the derivatives are Euler
operators, and equalities downstream are judged modulo total
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
    """The bracket of a finite model saw a prolonged generator."""


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


def antibracket(f: LocalFunction, g: LocalFunction, spatial_dim: int) -> LocalFunction:
    """The odd bracket, summed over conjugate pairs:

    (f, g) = sum over pairs (z, z*) of
    dR f/dz * dL g/dz* - dR f/dz* * dL g/dz.

    On a finite model (spatial dimension 0) the derivatives are graded
    partials, and a prolonged generator is refused.  Above dimension 0
    they are the Euler operators of the families, so any argument that
    is itself a total divergence yields zero exactly.
    """
    if spatial_dim == 0:
        _require_finite(f, JetModelRequiresVariationalBracket, "the pointwise bracket")
        _require_finite(g, JetModelRequiresVariationalBracket, "the pointwise bracket")
        derivative = graded_partial
    else:
        derivative = variational_derivative
    terms = []
    for z, zs in family_pairs(f, g):
        terms.append(derivative(f, z, "right") * derivative(g, zs, "left"))
        terms.append(-(derivative(f, zs, "right") * derivative(g, z, "left")))
    return sum_of(terms)


def bv_laplacian(f: LocalFunction) -> LocalFunction:
    """Second-order odd Laplacian on finite models.

    D f = sum over pairs (z, z*) of (-1)^{|z|} dL/dz (dL f/dz*).
    """
    _require_finite(f, JetModelUnsupported, "the Laplacian")
    return sum_of((-1) ** z.parity * graded_partial(graded_partial(f, zs, "left"), z, "left")
                  for z, zs in family_pairs(f))
