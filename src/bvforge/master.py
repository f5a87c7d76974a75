"""Staged extended actions and the classical master equation solver.

An extended action starts from the Lagrangian, adds the antifield
coupling to the gauge transformations, then the antighost terms built
from structure functions (and, for algebras that close only on shell,
the quadratic-antifield terms).  The solver lifts the action stratum by
stratum in antifield number: whenever the self-bracket leaves a lowest
nonvanishing stratum R_k, it solves the exact linear system

    kt(X) = -1/2 R_k   (modulo total divergences)

for a correction X of antifield number k + 1 and ghost number zero over
a bounded monomial basis, where kt is the component of the bracket with
the action that lowers antifield number by exactly one.  A stratum that
fails to lift within the bounds is reported, never silently dropped; it
signals bounds too small rather than a genuine obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .algebra import (
    Generator,
    LocalFunction,
    antifield,
    antighost,
    decompose_by_antifield_number,
    gen,
    ghost,
    graded_partial,
    sum_of,
)
from .bracket import JetModelUnsupported, antibracket, bv_laplacian, family_pairs
from .jet import (
    ModelSpec,
    all_multi_indices,
    check_noether,
    enumerate_basis_monomials,
    functional_parts,
    total_derivative_multi,
    variational_derivative,
)
from .linsolve import ansatz, match_unknowns, solve_linear_system

# Most monomials one lift ansatz may hold.  The open algebra on a line at
# jet=2 deg=4 needs 1530; at deg=30 its stratum-2 ansatz needs 19082.
MAX_LIFT_CANDIDATES = 10_000


class MissingStructureFunctions(ValueError):
    """Stage two needs the structure functions of the gauge algebra."""


class NoetherPreconditionFailed(ValueError):
    """The master solver requires the Noether identities to hold."""


@dataclass(frozen=True)
class BVAction:
    """An extended action stratified by antifield number.

    ``solved_up_to`` records through which antifield number the strata
    of the self-bracket are claimed to vanish modulo divergences.  The
    residual report, when present, maps antifield number to the
    nonvanishing residual strata (empty means the master equation holds
    through the truncation).
    """

    total: LocalFunction
    by_antifield_number: dict[int, LocalFunction]
    solved_up_to: int
    spatial_dim: int
    residual_report: dict[int, LocalFunction] | None = None

    @classmethod
    def from_total(cls, total: LocalFunction, spatial_dim: int, solved_up_to: int) -> "BVAction":
        strata = decompose_by_antifield_number(total)
        for k, part in strata.items():
            if part.ghost_number() != 0:
                raise ValueError(f"stratum {k} of the action is not of ghost number zero")
        return cls(total=total, by_antifield_number=strata, solved_up_to=solved_up_to,
                   spatial_dim=spatial_dim)

    def stratum(self, k: int) -> LocalFunction:
        return self.by_antifield_number.get(k, LocalFunction.zero())

    @cached_property
    def kt_sources(self) -> tuple[tuple[Generator, LocalFunction], ...]:
        """(z*, dR S_{a-1}/dz) for each conjugate pair (z, z*) with a the
        antifield number of z*, where the derivative does not vanish.

        These are the right partials (Euler derivatives above dimension
        0) of S_0 by the fields and of S_1 by the ghosts: the only parts
        of S that ``kt_differential`` reads.  They are computed once per
        action, on first use.
        """
        derivative = _bracket_derivative(self.spatial_dim)
        out = []
        for z, zs in family_pairs(self.stratum(0), self.stratum(1)):
            source = derivative(self.stratum(zs.antifield_number - 1), z, "right")
            if source:
                out.append((zs, source))
        return tuple(out)


@dataclass(frozen=True)
class ObstructionRecord:
    """Outcome of one lifting step at a fixed antifield number."""

    antifield_number: int
    obstruction: LocalFunction
    lifted: bool
    correction: LocalFunction | None
    ansatz_dimensions: tuple[int, int]


def build_stage_action(m: ModelSpec, stage: int) -> BVAction:
    """The staged action: Lagrangian, antifield couplings, antighost terms.

    Stage 0 is the Lagrangian alone.  Stage 1 adds, for every gauge
    coefficient, the antifield against the transformation of the field
    with the ghost in the parameter slot.  Stage 2 adds the antighost
    term (1/2) c C* C C, written over ordered ghost pairs, and the
    on-shell term -(1/4) nu u* u* C C when closure functions are given.
    """
    if stage not in (0, 1, 2):
        raise ValueError("stage must be 0, 1, or 2")
    total = m.lagrangian
    if stage >= 1:
        for (a, alpha, jet) in sorted(m.gauge_coefficients):
            total = total + gen(antifield(a)) * m.gauge_coefficient(a, alpha, jet) \
                * total_derivative_multi(gen(ghost(alpha)), jet, m.spatial_dim)
    if stage >= 2:
        if m.structure_functions is None:
            raise MissingStructureFunctions("stage 2 requires structure functions")
        for gi, alpha in enumerate(m.gauge_indices):
            for beta in m.gauge_indices[gi + 1:]:
                for gamma in m.gauge_indices:
                    c = m.structure_function(gamma, alpha, beta)
                    if not c.is_zero:
                        total = total + c * gen(antighost(gamma)) * gen(ghost(alpha)) * gen(ghost(beta))
        if m.closure_functions is not None:
            for fi, a in enumerate(m.fields):
                for b in m.fields[fi + 1:]:
                    for gi, alpha in enumerate(m.gauge_indices):
                        for beta in m.gauge_indices[gi + 1:]:
                            nu = m.closure_function(a, b, alpha, beta)
                            if not nu.is_zero:
                                total = total - nu * gen(antifield(a)) * gen(antifield(b)) \
                                    * gen(ghost(alpha)) * gen(ghost(beta))
    return BVAction.from_total(total, m.spatial_dim, solved_up_to=stage)


def default_stage(m: ModelSpec) -> int:
    """The highest stage the model data permits: 2 with structure
    functions, 1 with gauge coefficients only, else 0."""
    if m.structure_functions is not None:
        return 2
    if m.gauge_coefficients:
        return 1
    return 0


def _bracket_derivative(spatial_dim: int):
    """The derivative the antibracket takes: the graded partial on a
    finite model, the Euler operator on a jet model."""
    return graded_partial if spatial_dim == 0 else variational_derivative


def kt_differential(S: BVAction, f: LocalFunction) -> LocalFunction:
    """The component of (S, f) lowering antifield number by exactly one.

    A conjugate pair (z, z*), with a the antifield number of z*,
    contributes dR S_j/dz * dL f_k/dz* and -dR S_j/dz* * dL f_k/dz to
    (S, f), both at antifield number j + k - a.  That is k - 1 only for
    j = a - 1, where S_j holds no z* and the second product vanishes.
    So the component is the sum over the pairs of ``S.kt_sources`` of
    dR S_{a-1}/dz * dL f/dz*, with the derivative of the antibracket:
    one left derivative of f per source, by its z*, on every model.
    """
    derivative = _bracket_derivative(S.spatial_dim)
    return sum_of(source * derivative(f, zs, "left") for zs, source in S.kt_sources)


def master_residual(S: BVAction) -> dict[int, LocalFunction]:
    """Strata of (S, S) that do not reduce to total divergences.

    An empty report means the master equation holds modulo divergences.
    """
    br = antibracket(S.total, S.total, S.spatial_dim)
    out: dict[int, LocalFunction] = {}
    for k, part in decompose_by_antifield_number(br).items():
        if functional_parts(part, S.spatial_dim):
            out[k] = part
    return out


def _correction_pool(m: ModelSpec) -> list[Generator]:
    pool = m.field_jet_pool()
    jets = all_multi_indices(m.spatial_dim, m.max_jet_order)
    for a in m.fields:
        pool.extend(antifield(a, jet) for jet in jets)
    for alpha in m.gauge_indices:
        for jet in jets:
            pool += [ghost(alpha, jet), antighost(alpha, jet)]
    return pool


def lift_candidate_count(m: ModelSpec, k: int) -> int:
    """``len(correction_candidates(m, k))`` in closed form.

    It counts the choices that ``enumerate_basis_monomials`` lists, over
    the same split of the pool by bidegree.  With J multi-indices in the
    jet bound there are F = |fields| J odd antifields (0, 1), G = |gauge|
    J odd ghosts (1, 0) and G even antighosts (0, 2), and n0 = dim + F
    even generators (0, 0).  A bidegree-(k, k) monomial takes k ghosts,
    k - 2c antifields and c antighosts, and fills the degree left under
    the bound with the n0.
    """
    J = comb(m.spatial_dim + m.max_jet_order, m.spatial_dim)
    F, G = len(m.fields) * J, len(m.gauge_indices) * J
    n0 = m.spatial_dim + F
    return sum(comb(G, k) * comb(F, k - 2 * c) * (comb(G + c - 1, c) if c else 1)
               * comb(n0 + m.max_poly_degree - (2 * k - c), n0)
               for c in range(k // 2 + 1) if m.max_poly_degree >= 2 * k - c)


def correction_candidates(m: ModelSpec, antifield_number: int) -> list[LocalFunction]:
    """The monomials of the given antifield number and ghost number zero,
    within the model's jet-order and polynomial-degree bounds.

    Ghost number zero at antighost degree k means ghost degree k, so the
    candidates are exactly the monomials of bidegree (k, k), generated
    directly in the fixed order of ``enumerate_basis_monomials``.  Above
    ``MAX_LIFT_CANDIDATES`` of them, counted by ``lift_candidate_count``,
    it raises ``ValueError`` before any is built.
    """
    count = lift_candidate_count(m, antifield_number)
    if count > MAX_LIFT_CANDIDATES:
        raise ValueError(
            f"lifting to antifield number {antifield_number} needs {count} candidate "
            f"monomials, more than {MAX_LIFT_CANDIDATES}; lower the deg or jet bound")
    return enumerate_basis_monomials(
        _correction_pool(m), m.max_poly_degree, bidegree=(antifield_number, antifield_number))


def _solve_lift(
    m: ModelSpec, S: BVAction, R: LocalFunction, stratum: int
) -> tuple[LocalFunction | None, int, int]:
    """Solve kt(X) = -1/2 R for X at antifield number stratum + 1.

    Returns (correction or None, candidate count, solution nullity).
    X is the generic ansatz sum_j a_j X_j over the candidates X_j, each
    unknown a_j an even generator that no derivative reaches, so kt and
    the functional projection are linear in the a_j and each runs once.
    kt is linear in S, so the system is solved as kt(D S)(X) = -D/2 R,
    with D the least common denominator of the coefficients of S_0, S_1
    and -1/2 R: the same solution, rank and nullity, with every
    coefficient an int.  Both sides are matched part by part, over
    ``functional_parts``: at dimension zero that is the sides
    themselves, above it their Euler derivatives family by family, which
    handles the divergence freedom.
    """
    candidates = correction_candidates(m, stratum + 1)
    if not candidates:
        return None, 0, 0
    half_R = Fraction(-1, 2) * R
    scale = lcm(*(c.denominator for f in (S.stratum(0), S.stratum(1), half_R)
                  for _, c in f.terms()))
    cleared = BVAction.from_total(scale * S.total, S.spatial_dim, S.solved_up_to)
    equations, rhs = match_unknowns(
        functional_parts(scale * half_R, m.spatial_dim),
        functional_parts(kt_differential(cleared, ansatz(candidates)), m.spatial_dim))
    solution = solve_linear_system(equations, rhs, len(candidates))
    if solution is None:
        return None, len(candidates), 0
    correction = sum_of(value * cand for value, cand in zip(solution.values, candidates) if value)
    return correction, len(candidates), solution.nullity


def solve_master(m: ModelSpec, K: int) -> tuple[BVAction, list[ObstructionRecord]]:
    """Lift the staged action until every stratum below K vanishes.

    Starts from the highest stage the model data permits, then repeats:
    find the lowest nonvanishing residual stratum R_k with k < K, solve
    for a correction of antifield number k + 1 within the ansatz
    bounds, and add it.  Each step strictly raises the lowest
    nonvanishing stratum, so the loop terminates.  A step whose linear
    system has no solution ends the run with an unlifted record.
    """
    if not check_noether(m).all_pass:
        raise NoetherPreconditionFailed("the gauge identities do not hold; fix the model first")
    S = build_stage_action(m, default_stage(m))

    records: list[ObstructionRecord] = []
    while True:
        residual = master_residual(S)
        k = min((j for j in residual if j < K), default=K)
        if k == K:
            break
        correction, n_candidates, nullity = _solve_lift(m, S, residual[k], k)
        records.append(ObstructionRecord(
            antifield_number=k,
            obstruction=residual[k],
            lifted=correction is not None,
            correction=correction,
            ansatz_dimensions=(n_candidates, nullity),
        ))
        if correction is None:
            break
        S = BVAction.from_total(S.total + correction, m.spatial_dim, solved_up_to=k + 1)
    final = replace(S, solved_up_to=k,
                    residual_report={j: v for j, v in residual.items() if j <= K})
    return final, records


@dataclass(frozen=True)
class QuantumMasterReport:
    """The self-bracket, the Laplacian of the action, and their difference."""

    classical: LocalFunction
    delta: LocalFunction
    quantum_residual: LocalFunction


def quantum_master_check(S: BVAction | LocalFunction) -> QuantumMasterReport:
    """Evaluate (S, S) = Delta S on a finite model, exactly.

    Accepts a bare local function too, so candidate actions that do not
    split into ghost number zero strata can still be probed.
    """
    if isinstance(S, BVAction):
        if S.spatial_dim != 0:
            raise JetModelUnsupported("the quantum check needs a finite model")
        total = S.total
    else:
        total = S
    classical = antibracket(total, total, 0)
    delta = bv_laplacian(total)
    return QuantumMasterReport(
        classical=classical,
        delta=delta,
        quantum_residual=classical - delta,
    )
