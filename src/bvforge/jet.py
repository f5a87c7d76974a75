"""Variational calculus on local functions and gauge-model descriptions.

This module provides the jet-space differential operators (prolongation,
total derivatives, Euler-Lagrange derivatives), the divergence test that
implements equality of local functionals, and the model-level checks:
Noether identity verification and the decomposition of a commutator of
gauge transformations into structure-function and on-shell parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    Factors,
    Generator,
    GeneratorKind,
    LocalFunction,
    base,
    field,
    gen,
    graded_partial,
    sum_of,
)
from .expr import format_generator
from .linsolve import match_coefficients, solve_linear_system


class BaseCoordinateProlongation(ValueError):
    """Base coordinates carry no jet index; they cannot be prolonged."""


class IndexOutOfRange(ValueError):
    """A spatial direction outside 1..n was used."""


class NonFieldGeneratorPresent(ValueError):
    """The divergence test is defined on the field sector only."""


def _check_direction(i: int, spatial_dim: int | None) -> None:
    if not isinstance(i, int) or i < 1:
        raise IndexOutOfRange(f"spatial directions start at 1, got {i}")
    if spatial_dim is not None and i > spatial_dim:
        raise IndexOutOfRange(f"direction {i} exceeds spatial dimension {spatial_dim}")


def prolong(g: Generator, i: int, spatial_dim: int | None = None) -> Generator:
    """Append one total-derivative direction to a generator's multi-index."""
    if g.kind is GeneratorKind.BASE:
        raise BaseCoordinateProlongation(f"cannot prolong base coordinate {g}")
    _check_direction(i, spatial_dim)
    return g.with_jet(g.jet + (i,))


def total_derivative(f: LocalFunction, i: int, spatial_dim: int | None = None) -> LocalFunction:
    """The total derivative D_i, an even derivation of the jet algebra.

    D_i x^j is the Kronecker delta and D_i z_I = z_{Ii} on every
    non-base generator.  Writing D_i f as the sum of D_i(z) times the
    left partial with respect to z is sign-correct because prolongation
    preserves parity.
    """
    _check_direction(i, spatial_dim)
    return sum_of([graded_partial(f, base(i), "left")] + [
        gen(prolong(z, i)) * graded_partial(f, z, "left")
        for z in f.generators() if z.kind is not GeneratorKind.BASE])


def total_derivative_multi(
    f: LocalFunction, jet: Sequence[int], spatial_dim: int | None = None
) -> LocalFunction:
    """D_I for a multi-index I (total derivatives commute, order is free)."""
    out = f
    for i in jet:
        out = total_derivative(out, i, spatial_dim)
    return out


def variational_derivative(
    f: LocalFunction, z: Generator, side: str = "left"
) -> LocalFunction:
    """The Euler operator of the family of z: sum of (-D)_I d/dz_I.

    ``z`` names the family through its kind and family label; its own
    multi-index must be empty.
    """
    if z.jet:
        raise ValueError("variational derivatives are taken per family; pass the unprolonged generator")
    terms = []
    for g in f.generators():
        if g.kind is z.kind and g.family == z.family:
            term = total_derivative_multi(graded_partial(f, g, side), g.jet)
            terms.append(-term if len(g.jet) % 2 else term)
    return sum_of(terms)


def euler_lagrange(f: LocalFunction, a: str) -> LocalFunction:
    """Euler-Lagrange derivative with respect to the field family ``a``."""
    return variational_derivative(f, field(a), "left")


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


def functional_vanishes(f: LocalFunction, spatial_dim: int) -> bool:
    """Internal divergence test over the full generator content of f.

    Used by the bracket and master-equation layers, whose strata carry
    ghosts and antifields.  At spatial dimension zero there are no
    divergences, so the functional vanishes only if f itself does.
    """
    if spatial_dim == 0:
        return f.is_zero
    return all(variational_derivative(f, z, "left").is_zero for z in families(f))


def families(*fs: LocalFunction) -> list[Generator]:
    """One unprolonged generator per (kind, family) present in the fs,
    base coordinates excluded, in the generator order."""
    reps = {(g.kind.rank, g.family): g
            for f in fs for g in f.generators() if g.kind is not GeneratorKind.BASE}
    return [g.with_jet(()) if g.jet else g for _, g in sorted(reps.items())]


def all_multi_indices(spatial_dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All sorted multi-indices with entries in 1..n and length <= p."""
    out: list[tuple[int, ...]] = []
    for r in range(max_order + 1):
        out.extend(itertools.combinations_with_replacement(range(1, spatial_dim + 1), r))
    return out


def enumerate_basis_monomials(
    pool: Sequence[Generator],
    max_degree: int,
    bidegree: tuple[int, int] | None = None,
) -> list[LocalFunction]:
    """Canonical monomials of total degree <= max_degree over a generator pool.

    With ``bidegree`` = (ghost degree, antighost degree) only the
    monomials of exactly that bidegree are produced.  The monomials are
    the non-decreasing index sequences over the sorted pool, walked
    depth first; an odd generator is never repeated, and a prefix whose
    partial bidegree already exceeds the target in either component is
    pruned, since every generator's bidegree is nonnegative.  Each
    sequence lists its factors in the generator total order, its odd
    generators included, so it is already in canonical form with Koszul
    sign +1 and is built without ``normalize``.

    The order is ascending degree, then lexicographic in the sorted pool
    within a degree: the order of
    ``itertools.combinations_with_replacement``.  Callers rely on it,
    since it fixes the pivot columns of every coefficient-matching
    system built over the list.
    """
    ordered = sorted(set(pool))
    gens = [(g, g.is_odd, g.bidegree) for g in ordered]
    by_degree: list[list[Factors]] = [[] for _ in range(max_degree + 1)]
    one = Fraction(1)
    # depth-first preorder with children in index order visits the
    # sequences of each length lexicographically
    stack: list[tuple[int, Factors, int, int, int]] = [(0, (), 0, 0, 0)]
    while stack:
        start, factors, degree, p, q = stack.pop()
        if bidegree is None or (p, q) == bidegree:
            by_degree[degree].append(factors)
        if degree == max_degree:
            continue
        children = []
        for i in range(start, len(gens)):
            g, odd, (gp, gq) = gens[i]
            if bidegree is not None and (p + gp > bidegree[0] or q + gq > bidegree[1]):
                continue
            if factors and i == start:  # the last factor again
                if odd:
                    continue
                child = factors[:-1] + ((g, factors[-1][1] + 1),)
            else:
                child = factors + ((g, 1),)
            children.append((i, child, degree + 1, p + gp, q + gq))
        stack.extend(reversed(children))
    return [LocalFunction({factors: one}, _internal=True)
            for level in by_degree for factors in level]


# ------------------------------------------------------------------ models

GaugeKey = tuple[str, str, tuple[int, ...]]


@dataclass
class ModelSpec:
    """A gauge-theory description over an n-dimensional base.

    ``gauge_coefficients`` holds the operator coefficients r of the
    transformations delta u^a = sum_I r^{aI}_alpha D_I epsilon^alpha,
    keyed by (field, gauge index, multi-index).  The optional structure
    functions c are keyed (gamma, alpha, beta) and are antisymmetric in
    the last two slots; the optional on-shell closure functions nu are
    keyed (a, b, alpha, beta) and are antisymmetric in (a, b) and in
    (alpha, beta) separately.  ``max_jet_order`` and ``max_poly_degree``
    bound every monomial ansatz built from this model.
    """

    spatial_dim: int
    fields: tuple[str, ...]
    gauge_indices: tuple[str, ...]
    lagrangian: LocalFunction
    gauge_coefficients: dict[GaugeKey, LocalFunction] = dataclass_field(default_factory=dict)
    structure_functions: dict[tuple[str, str, str], LocalFunction] | None = None
    closure_functions: dict[tuple[str, str, str, str], LocalFunction] | None = None
    max_jet_order: int = 3
    max_poly_degree: int = 4

    def __post_init__(self) -> None:
        if self.spatial_dim < 0:
            raise ValueError("spatial dimension must be >= 0")
        self.fields = tuple(self.fields)
        self.gauge_indices = tuple(self.gauge_indices)
        if len(set(self.fields)) != len(self.fields):
            raise ValueError("duplicate field identifiers")
        if len(set(self.gauge_indices)) != len(self.gauge_indices):
            raise ValueError("duplicate gauge identifiers")
        if self.max_jet_order < 0 or self.max_poly_degree < 0:
            raise ValueError("ansatz bounds must be >= 0")
        self._check_field_sector(self.lagrangian, "lagrangian")
        cleaned: dict[GaugeKey, LocalFunction] = {}
        for (a, alpha, jet), coeff in self.gauge_coefficients.items():
            jet = tuple(sorted(jet))
            if a not in self.fields:
                raise ValueError(f"gauge coefficient names unknown field {a!r}")
            if alpha not in self.gauge_indices:
                raise ValueError(f"gauge coefficient names unknown gauge index {alpha!r}")
            for i in jet:
                _check_direction(i, self.spatial_dim)
            self._check_field_sector(coeff, f"gauge coefficient ({a},{alpha},{jet})")
            if not coeff.is_zero:
                cleaned[(a, alpha, jet)] = coeff
        self.gauge_coefficients = cleaned
        if self.structure_functions is not None:
            self._validate_antisymmetric_pairing(
                self.structure_functions, slots=(1, 2), what="structure functions")
        if self.closure_functions is not None:
            self._validate_antisymmetric_pairing(
                self.closure_functions, slots=(0, 1), what="closure functions")
            self._validate_antisymmetric_pairing(
                self.closure_functions, slots=(2, 3), what="closure functions")

    def _check_field_sector(self, f: LocalFunction, what: str) -> None:
        for g in sorted(f.generators()):
            if g.kind is GeneratorKind.BASE:
                if int(g.family) > self.spatial_dim:
                    raise ValueError(f"{what} uses base coordinate beyond dimension {self.spatial_dim}")
            elif g.kind is GeneratorKind.FIELD:
                if g.family not in self.fields:
                    raise ValueError(f"{what} uses unknown field family {g.family!r}")
                for i in g.jet:
                    _check_direction(i, self.spatial_dim)
            else:
                raise ValueError(f"{what} must contain only base coordinates and fields")

    @staticmethod
    def _validate_antisymmetric_pairing(table, slots, what: str) -> None:
        i, j = slots
        for key, value in table.items():
            if key[i] == key[j]:
                if not value.is_zero:
                    raise ValueError(f"{what}: diagonal entry {key} must vanish")
                continue
            swapped = list(key)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            partner = table.get(tuple(swapped))
            if partner is not None and partner != -value:
                raise ValueError(f"{what}: entries {key} and {tuple(swapped)} are not antisymmetric")

    # -- lookup with implied antisymmetry --

    def gauge_coefficient(self, a: str, alpha: str, jet: tuple[int, ...]) -> LocalFunction:
        return self.gauge_coefficients.get((a, alpha, tuple(sorted(jet))), LocalFunction.zero())

    def structure_function(self, gamma: str, alpha: str, beta: str) -> LocalFunction:
        table = self.structure_functions or {}
        if (gamma, alpha, beta) in table:
            return table[(gamma, alpha, beta)]
        if (gamma, beta, alpha) in table:
            return -table[(gamma, beta, alpha)]
        return LocalFunction.zero()

    def closure_function(self, a: str, b: str, alpha: str, beta: str) -> LocalFunction:
        table = self.closure_functions or {}
        for key, sign in (
            ((a, b, alpha, beta), 1),
            ((b, a, alpha, beta), -1),
            ((a, b, beta, alpha), -1),
            ((b, a, beta, alpha), 1),
        ):
            if key in table:
                return sign * table[key]
        return LocalFunction.zero()

    def gauge_multi_indices(self, a: str, alpha: str) -> list[tuple[int, ...]]:
        return sorted(jet for (f, g, jet) in self.gauge_coefficients if f == a and g == alpha)

    def field_jet_pool(self) -> list[Generator]:
        """Base coordinates and prolonged fields inside the ansatz bounds."""
        pool: list[Generator] = [base(i) for i in range(1, self.spatial_dim + 1)]
        for a in self.fields:
            for jet in all_multi_indices(self.spatial_dim, self.max_jet_order):
                pool.append(field(a, jet))
        return pool


@dataclass(frozen=True)
class NoetherReport:
    """Per-identity residuals of the Noether check; all_pass iff all vanish."""

    per_identity_residual: dict[str, LocalFunction]

    @property
    def all_pass(self) -> bool:
        return all(r.is_zero for r in self.per_identity_residual.values())


def check_noether(m: ModelSpec) -> NoetherReport:
    """Verify the differential relations among the equations of motion.

    For each gauge index alpha the residual is the adjoint of the gauge
    operator applied to the equations of motion, the local function
    sum over (a, I) of (-D)_I (r^{aI}_alpha E_a(L)); the identities hold
    exactly when every residual is the zero element.
    """
    el = {a: euler_lagrange(m.lagrangian, a) for a in m.fields}
    residuals: dict[str, LocalFunction] = {}
    for alpha in m.gauge_indices:
        residuals[alpha] = sum_of(
            (-1) ** len(jet) * total_derivative_multi(
                m.gauge_coefficient(a, alpha, jet) * el[a], jet, m.spatial_dim)
            for a in m.fields for jet in m.gauge_multi_indices(a, alpha))
    return NoetherReport(per_identity_residual=residuals)


# -------------------------------------------------- gauge transformations

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
