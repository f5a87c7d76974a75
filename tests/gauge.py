"""The gauge-commutator decomposition and the divergence test, for the tests.

No command reaches them: ``gauge_commutator`` splits a commutator of
gauge transformations into structure-function and on-shell parts over a
bounded ansatz, and ``is_total_divergence`` decides equality of local
functionals on the field sector.  The tests of ``bvforge.jet`` use them
as checks on the jet calculus the library ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from bvforge.algebra import Generator, GeneratorKind, LocalFunction, field, gen, graded_partial, sum_of
from bvforge.expr import format_generator
from bvforge.jet import (
    ModelSpec,
    enumerate_basis_monomials,
    euler_lagrange,
    families,
    total_derivative_multi,
)
from bvforge.linsolve import solve_linear_system
from harnesses import match_coefficients


class NonFieldGeneratorPresent(ValueError):
    """The divergence test is defined on the field sector only."""


def _field_sector_only(f: LocalFunction, what: str) -> None:
    outside = [g for g in f.generators() if g.kind not in (GeneratorKind.BASE, GeneratorKind.FIELD)]
    if outside:
        raise NonFieldGeneratorPresent(
            f"{what} is defined on the field sector; found {format_generator(min(outside))}")


def is_total_divergence(f: LocalFunction) -> bool:
    """True iff every Euler-Lagrange derivative of f vanishes.

    The kernel of all Euler operators on polynomial local functions with
    explicit base-coordinate dependence consists exactly of the total
    divergences, so no witness current is needed.
    """
    _field_sector_only(f, "the divergence test")
    return all(euler_lagrange(f, z.family).is_zero for z in families(f))


def apply_evolutionary(
    m: ModelSpec, characteristics: Mapping[str, LocalFunction], f: LocalFunction
) -> LocalFunction:
    """Apply the evolutionary vector field with the given characteristics.

    The field acts on prolonged field generators as D_I applied to the
    characteristic of the family and ignores every other generator kind,
    so it commutes with total derivatives by construction.
    """
    return sum_of(
        total_derivative_multi(characteristics[g.family], g.jet, m.spatial_dim)
        * graded_partial(f, g, "left")
        for g in f.generators()
        if g.kind is GeneratorKind.FIELD and characteristics.get(g.family))


_PARAMETER_PREFIX = "@"


def gauge_parameter(alpha: str) -> Generator:
    """The formal even parameter generator attached to a gauge index."""
    return field(_PARAMETER_PREFIX + alpha)


def gauge_characteristic(m: ModelSpec, alpha: str, parameter: LocalFunction) -> dict[str, LocalFunction]:
    """Characteristics Q^a = sum_I r^{aI}_alpha D_I(parameter)."""
    return {a: sum_of(m.gauge_coefficient(a, alpha, jet)
                      * total_derivative_multi(parameter, jet, m.spatial_dim)
                      for jet in m.gauge_multi_indices(a, alpha))
            for a in m.fields}


@dataclass(frozen=True)
class GaugeCommutatorReport:
    """Decomposition of a commutator of gauge transformations.

    ``commutator`` holds the raw action on each field.  When the linear
    solve succeeds, c gives the structure-function coefficients per
    gauge index, nu the antisymmetric on-shell coefficients keyed by
    field pairs (a, b) with a < b, and every residual is zero.  When the
    bounded ansatz cannot express the commutator, c and nu are empty and
    the residual repeats the commutator itself.
    """

    commutator: dict[str, LocalFunction]
    c: dict[str, LocalFunction]
    nu: dict[tuple[str, str], LocalFunction]
    residual: dict[str, LocalFunction]
    solution_dim: int

    @property
    def explained(self) -> bool:
        return all(r.is_zero for r in self.residual.values())


def gauge_commutator(m: ModelSpec, alpha: str, beta: str) -> GaugeCommutatorReport:
    """Decompose [delta_alpha, delta_beta] into closed and on-shell parts.

    The commutator of the two evolutionary vector fields is computed on
    each field, then matched against a bounded linear ansatz: structure
    coefficients multiplying a gauge transformation with the product
    parameter, plus antisymmetric pairs of coefficients multiplying the
    Euler-Lagrange derivatives.  The first solution in the deterministic
    monomial order is returned together with the solution-space
    dimension.
    """
    if m.spatial_dim == 0:
        param_a = LocalFunction.one()
        param_b = LocalFunction.one()
    else:
        param_a = gen(gauge_parameter(alpha))
        param_b = gen(gauge_parameter(beta))
    q_alpha = gauge_characteristic(m, alpha, param_a)
    q_beta = gauge_characteristic(m, beta, param_b)

    commutator = {
        a: apply_evolutionary(m, q_alpha, q_beta[a]) - apply_evolutionary(m, q_beta, q_alpha[a])
        for a in m.fields
    }

    pool = m.field_jet_pool()
    basis = enumerate_basis_monomials(pool, m.max_poly_degree)
    product_parameter = param_a * param_b
    el = {a: euler_lagrange(m.lagrangian, a) for a in m.fields}

    # Candidate columns, in a fixed order: first the structure terms,
    # then the on-shell terms.  Each candidate is its per-field action.
    candidates: list[tuple[str, object, dict[str, LocalFunction]]] = []
    for gamma in m.gauge_indices:
        for w in basis:
            action = gauge_characteristic(m, gamma, w * product_parameter)
            if any(action.values()):
                candidates.append(("c", (gamma, w), action))
    for ia, a in enumerate(m.fields):
        for b in m.fields[ia + 1:]:
            for w in basis:
                action = {name: LocalFunction.zero() for name in m.fields}
                action[a] = w * product_parameter * el[b]
                action[b] = -(w * product_parameter * el[a])
                if not (action[a].is_zero and action[b].is_zero):
                    candidates.append(("nu", (a, b, w), action))

    # One block of equations per field, in the order of the field labels.
    blocks = [(commutator[a], [cand[2][a] for cand in candidates]) for a in sorted(m.fields)]
    equations, rhs = match_coefficients(blocks)
    solution = solve_linear_system(equations, rhs, len(candidates))
    if solution is None:
        return GaugeCommutatorReport(
            commutator=commutator,
            c={},
            nu={},
            residual=dict(commutator),
            solution_dim=0,
        )

    c_out = {gamma: LocalFunction.zero() for gamma in m.gauge_indices}
    nu_out = {
        (a, b): LocalFunction.zero()
        for ia, a in enumerate(m.fields)
        for b in m.fields[ia + 1:]
    }
    for value, cand in zip(solution.values, candidates):
        if not value:
            continue
        kind, payload, _ = cand
        if kind == "c":
            gamma, w = payload
            c_out[gamma] = c_out[gamma] + value * w
        else:
            a, b, w = payload
            nu_out[(a, b)] = nu_out[(a, b)] + value * w

    residual = {a: LocalFunction.zero() for a in m.fields}
    return GaugeCommutatorReport(
        commutator=commutator,
        c=c_out,
        nu=nu_out,
        residual=residual,
        solution_dim=solution.nullity,
    )
