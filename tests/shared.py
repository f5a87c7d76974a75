"""The models, documents and paths that several test modules use, each built once.

A test module imports what it needs from here; ``test_shared`` fails
when another module defines one of these names at top level again.

The module is not called ``models``: ``bench/test_bench.py`` puts
``bench/`` first on ``sys.path`` and imports ``bench/models.py`` as
``models``, and pytest collects ``tests/`` first, so a ``tests/models.py``
imported earlier would shadow it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from bvforge.algebra import LocalFunction, antifield, antighost, base, field, gen, ghost, sum_of
from bvforge.jet import ModelSpec

__all__ = ["HALF", "EPS", "FIXTURES", "fx", "ALL_COMMANDS", "OPEN_ALGEBRA_ON_A_LINE",
           "eps_structure_functions", "scalar_model", "curl_model", "ghost_so3_model", "full_so3_model",
           "open_algebra_model", "non_jacobi_ghost_model",
           "GRADED_POOL", "random_monomial", "random_local_function",
           "documented_key", "documented_factors_key"]

HALF = LocalFunction.constant(Fraction(1, 2))
# the Levi-Civita symbol on 1, 2, 3, nonzero entries only
EPS = {(i, j, k): s for i, j, k, s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]}
FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


# every command once, each on a fixture it accepts
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

# the two shift symmetries of ``open_algebra_model`` on a line
OPEN_ALGEBRA_ON_A_LINE = """\
dimension 1
fields 1 2 3
gauge 1 2
bounds jet=1 deg=4
lagrangian 1/2*u[3]^2
generators
  r[1, 1] = u[3]
  r[2, 2] = u[1]
"""


def eps_structure_functions():
    """so(3): c[gamma, alpha, beta] = eps(alpha, beta, gamma)."""
    out = {}
    for gamma, alpha, beta in itertools.product((1, 2, 3), repeat=3):
        s = EPS.get((alpha, beta, gamma), 0)
        if s:
            out[(str(gamma), str(alpha), str(beta))] = LocalFunction.constant(s)
    return out


def scalar_model():
    """A free scalar on a line with the gauge shift r[1, e; 1] = 1."""
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
    """Maxwell in two dimensions: L = 1/2 (D_2 u1 - D_1 u2)^2."""
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
    """The so(3) ghosts alone: no fields, only the structure constants."""
    return ModelSpec(
        spatial_dim=0,
        fields=(),
        gauge_indices=("1", "2", "3"),
        lagrangian=LocalFunction.zero(),
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def full_so3_model():
    """Rotations of a triplet of scalars with the invariant mass term."""
    coeffs = {}
    for alpha, a in itertools.product((1, 2, 3), repeat=2):
        r = sum_of(EPS[b, alpha, a] * gen(field(str(b))) for b in (1, 2, 3) if (b, alpha, a) in EPS)
        if not r.is_zero:
            coeffs[(str(a), str(alpha), ())] = r
    return ModelSpec(
        spatial_dim=0,
        fields=("1", "2", "3"),
        gauge_indices=("1", "2", "3"),
        lagrangian=sum_of(HALF * gen(field(str(a))) ** 2 for a in (1, 2, 3)),
        gauge_coefficients=coeffs,
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def open_algebra_model(with_seeded_functions=False):
    """Two shift symmetries closing only on the equation of motion of u3."""
    kwargs = {}
    if with_seeded_functions:
        kwargs["structure_functions"] = {}
        kwargs["closure_functions"] = {("2", "3", "1", "2"): LocalFunction.one()}
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
        **kwargs,
    )


def non_jacobi_ghost_model():
    """Antisymmetric structure constants that fail the Jacobi identity."""
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


# ---------------------------------------------------- seeded functions

# generators of every kind and both parities, with and without a jet index
GRADED_POOL = [
    base(1), base(2),
    field("1"), field("1", (1,)), field("2"), field("2", (1, 2)),
    antifield("1"), antifield("2", (1,)),
    ghost("1"), ghost("2"), ghost("1", (2,)),
    antighost("1"), antighost("2"),
]


def random_monomial(rng, pool, max_len):
    """Up to ``max_len`` factors drawn from ``pool``, not yet canonical, and a
    coefficient n/d with |n| <= 6 and 1 <= d <= 4."""
    k = rng.randint(0, max_len)
    flat = [rng.choice(pool) for _ in range(k)]
    coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return tuple((g, 1) for g in flat), coeff


def random_local_function(rng, pool=GRADED_POOL, terms=3, max_len=4):
    return LocalFunction.from_terms(
        random_monomial(rng, pool, max_len) for _ in range(terms))


# ------------------------------------------------------ the term order

def documented_key(g):
    """A generator's place in the term order, as documented: kind, then
    family as a string, then jet length, then jet.  The package compares
    generators by their tuple values alone; this is their oracle."""
    return g.kind.rank, g.family, len(g.jet), g.jet


def documented_factors_key(factors):
    """The place of a term with these factors in the documented term order."""
    return tuple((documented_key(g), e) for g, e in factors)
