"""Staged actions, Koszul-Tate lifting, and the master-equation solver."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from bvforge.algebra import (
    LocalFunction,
    antifield,
    antighost,
    base,
    field,
    gen,
    ghost,
)
from bvforge.bracket import JetModelUnsupported, antibracket
from bvforge.jet import ModelSpec, all_multi_indices, enumerate_basis_monomials, functional_vanishes
from bvforge.master import (
    MAX_LIFT_CANDIDATES,
    BVAction,
    MissingStructureFunctions,
    NoetherPreconditionFailed,
    build_stage_action,
    correction_candidates,
    kt_differential,
    lift_candidate_count,
    master_residual,
    quantum_master_check,
    solve_master,
)
from bvforge.modelfile import parse_document

FIXTURES = Path(__file__).parent / "fixtures"
HALF = LocalFunction.constant(Fraction(1, 2))


def scalar_model():
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


EPS = {}
for _i, _j, _k, _s in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
                       (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1)]:
    EPS[(_i, _j, _k)] = _s


def eps_structure_functions():
    out = {}
    for gamma in (1, 2, 3):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                s = EPS.get((alpha, beta, gamma), 0)
                if s:
                    out[(str(gamma), str(alpha), str(beta))] = LocalFunction.constant(s)
    return out


def ghost_so3_model():
    return ModelSpec(
        spatial_dim=0,
        fields=(),
        gauge_indices=("1", "2", "3"),
        lagrangian=LocalFunction.zero(),
        structure_functions=eps_structure_functions(),
        max_poly_degree=3,
    )


def full_so3_model():
    coeffs = {}
    for alpha in (1, 2, 3):
        for a in (1, 2, 3):
            r = LocalFunction.zero()
            for b in (1, 2, 3):
                s = EPS.get((b, alpha, a), 0)
                if s:
                    r = r + s * gen(field(str(b)))
            if not r.is_zero:
                coeffs[(str(a), str(alpha), ())] = r
    lagr = LocalFunction.zero()
    for a in (1, 2, 3):
        lagr = lagr + HALF * gen(field(str(a))) ** 2
    return ModelSpec(
        spatial_dim=0,
        fields=("1", "2", "3"),
        gauge_indices=("1", "2", "3"),
        lagrangian=lagr,
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
    # antisymmetric structure constants that fail the Jacobi identity
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


# ---------------------------------------------------------------- actions

def test_bv_action_requires_ghost_number_zero():
    with pytest.raises(ValueError):
        BVAction.from_total(gen(ghost("1")), 0, 0)
    action = BVAction.from_total(
        gen(field("1")) + gen(antifield("1")) * gen(ghost("e")), 0, 1)
    assert set(action.by_antifield_number) == {0, 1}
    assert action.stratum(0) == gen(field("1"))
    assert action.stratum(5).is_zero


def test_stage_zero_is_the_lagrangian():
    m = scalar_model()
    action = build_stage_action(m, 0)
    assert action.total == m.lagrangian


def test_stage_one_couples_antifields_to_transformations():
    m = scalar_model()
    action = build_stage_action(m, 1)
    expected = m.lagrangian + gen(antifield("1")) * gen(ghost("e", (1,)))
    assert action.total == expected
    assert action.stratum(1) == gen(antifield("1")) * gen(ghost("e", (1,)))


def test_stage_two_needs_structure_functions():
    with pytest.raises(MissingStructureFunctions):
        build_stage_action(scalar_model(), 2)


def test_stage_two_ghost_term_normalization():
    action = build_stage_action(ghost_so3_model(), 2)
    C = {i: gen(ghost(str(i))) for i in (1, 2, 3)}
    CS = {i: gen(antighost(str(i))) for i in (1, 2, 3)}
    expected = CS[3] * C[1] * C[2] - CS[2] * C[1] * C[3] + CS[1] * C[2] * C[3]
    assert action.total == expected


def test_stage_two_on_shell_term():
    m = open_algebra_model(with_seeded_functions=True)
    action = build_stage_action(m, 2)
    nu_term = action.stratum(2)
    expected = -(gen(antifield("2")) * gen(antifield("3")) * gen(ghost("1")) * gen(ghost("2")))
    assert nu_term == expected


# ---------------------------------------------------------------- kt differential

def test_kt_on_antifield_gives_equation_of_motion():
    m = scalar_model()
    S0 = build_stage_action(m, 0)
    out = kt_differential(S0, gen(antifield("1")))
    assert out == -gen(field("1", (1, 1)))


def test_kt_on_antighost_gives_noether_combination():
    m = scalar_model()
    S1 = build_stage_action(m, 1)
    out = kt_differential(S1, gen(antighost("e")))
    assert out == -gen(antifield("1", (1,)))


def test_kt_ignores_field_only_input():
    m = scalar_model()
    S1 = build_stage_action(m, 1)
    assert kt_differential(S1, gen(field("1")) ** 2).is_zero


def test_kt_squares_to_zero_modulo_divergence():
    m = curl_model()
    S1 = build_stage_action(m, 1)
    f = gen(antighost("e"))
    once = kt_differential(S1, f)
    twice = kt_differential(S1, once)
    assert functional_vanishes(twice, m.spatial_dim)


# ---------------------------------------------------------------- residuals

def test_master_residual_of_curl_gauge_action_vanishes():
    S1 = build_stage_action(curl_model(), 1)
    assert master_residual(S1) == {}


def test_master_residual_of_rotation_ghost_action_vanishes():
    S2 = build_stage_action(ghost_so3_model(), 2)
    assert antibracket(S2.total, S2.total, 0).is_zero
    assert master_residual(S2) == {}


def test_master_residual_detects_jacobi_violation():
    S2 = build_stage_action(non_jacobi_ghost_model(), 2)
    residual = master_residual(S2)
    assert set(residual) == {2}
    assert not residual[2].is_zero


def test_master_residual_of_bare_lagrangian_stage():
    S0 = build_stage_action(scalar_model(), 0)
    assert master_residual(S0) == {}


# ---------------------------------------------------------------- solver

def test_solver_requires_noether_identities():
    with pytest.raises(NoetherPreconditionFailed):
        solve_master(scalar_model(), 2)


def test_solver_on_abelian_curl_model_stops_at_stage_one():
    S, records = solve_master(curl_model(), 3)
    assert records == []
    assert S.residual_report == {}
    assert S.solved_up_to == 3
    assert S.total == build_stage_action(curl_model(), 1).total


def test_solver_on_rotation_ghost_model_keeps_stage_two():
    m = ghost_so3_model()
    S, records = solve_master(m, 3)
    assert records == []
    assert S.residual_report == {}
    assert S.total == build_stage_action(m, 2).total


def test_solver_on_full_rotation_model():
    m = full_so3_model()
    S, records = solve_master(m, 3)
    assert records == []
    assert S.residual_report == {}
    assert antibracket(S.total, S.total, 0).is_zero


def test_solver_lifts_open_algebra_with_quadratic_antifield_term():
    m = open_algebra_model()
    S, records = solve_master(m, 3)
    assert len(records) == 1
    record = records[0]
    assert record.antifield_number == 1
    assert record.lifted
    expected = -(gen(antifield("2")) * gen(antifield("3")) * gen(ghost("1")) * gen(ghost("2")))
    assert record.correction == expected
    assert S.residual_report == {}
    assert antibracket(S.total, S.total, 0).is_zero


def test_solver_agrees_with_seeded_stage_two():
    solved, _ = solve_master(open_algebra_model(), 3)
    seeded = build_stage_action(open_algebra_model(with_seeded_functions=True), 2)
    assert solved.total == seeded.total


def test_solver_reports_unliftable_stratum():
    m = non_jacobi_ghost_model()
    S, records = solve_master(m, 4)
    assert len(records) == 1
    record = records[0]
    assert not record.lifted
    assert record.antifield_number == 2
    assert record.correction is None
    assert record.ansatz_dimensions[0] == 0
    assert not record.obstruction.is_zero
    assert S.solved_up_to == 2
    assert set(S.residual_report) == {2}


def test_solver_is_deterministic():
    a1, r1 = solve_master(open_algebra_model(), 3)
    a2, r2 = solve_master(open_algebra_model(), 3)
    assert a1.total == a2.total
    assert a1.by_antifield_number == a2.by_antifield_number
    assert [rec.correction for rec in r1] == [rec.correction for rec in r2]


def test_solved_actions_square_to_zero_on_random_arguments():
    rng = random.Random(7101)
    m = curl_model()
    S, _ = solve_master(m, 3)
    pool = []
    for a in m.fields:
        for jet in all_multi_indices(2, 1):
            pool.append(field(a, jet))
            pool.append(antifield(a, jet))
    for jet in all_multi_indices(2, 1):
        pool.append(ghost("e", jet))
        pool.append(antighost("e", jet))
    for _ in range(50):
        k = rng.randint(1, 3)
        flat = [rng.choice(pool) for _ in range(k)]
        f = LocalFunction.from_terms([(tuple((g, 1) for g in flat), Fraction(rng.randint(1, 3)))])
        inner = antibracket(S.total, f, 2)
        outer = antibracket(S.total, inner, 2)
        assert functional_vanishes(outer, 2)


# ---------------------------------------------------------------- candidates

def test_correction_candidates_filter_degrees():
    m = open_algebra_model()
    cands = correction_candidates(m, 2)
    assert cands
    for cand in cands:
        deg = cand.bidegree()
        assert deg.antighost == 2
        assert deg.total == 0
    # the pure ghost sector has no odd antifield numbers to draw on
    ghost_m = ghost_so3_model()
    assert correction_candidates(ghost_m, 3) == []


def oracle_basis(pool, max_degree):
    """Every monomial up to max_degree, canonicalised through normalize."""
    ordered = sorted(set(pool))
    out = [LocalFunction.one()]
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(ordered, d):
            m = LocalFunction.from_terms([(tuple((g, 1) for g in combo), Fraction(1))])
            if not m.is_zero:
                out.append(m)
    return out


def oracle_pool(m):
    pool = [base(i) for i in range(1, m.spatial_dim + 1)]
    jets = all_multi_indices(m.spatial_dim, m.max_jet_order)
    for a in m.fields:
        for jet in jets:
            pool.append(field(a, jet))
            pool.append(antifield(a, jet))
    for alpha in m.gauge_indices:
        for jet in jets:
            pool.append(ghost(alpha, jet))
            pool.append(antighost(alpha, jet))
    return pool


def filter_candidates(basis, antifield_number):
    """The monomials of antifield number k and ghost number 0."""
    out = []
    for cand in basis:
        deg = cand.bidegree()
        if deg is not None and deg.antighost == antifield_number and deg.total == 0:
            out.append(cand)
    return out


def oracle_candidates(m, antifield_number):
    return filter_candidates(oracle_basis(oracle_pool(m), m.max_poly_degree), antifield_number)


def random_candidate_model(rng):
    dim = rng.randint(0, 2)
    m = ModelSpec(
        spatial_dim=dim,
        fields=tuple(str(a) for a in range(1, rng.randint(0, 2) + 1)),
        gauge_indices=tuple(str(al) for al in range(1, rng.randint(0, 2) + 1)),
        lagrangian=LocalFunction.zero(),
        max_jet_order=rng.randint(0, 2),
        max_poly_degree=rng.randint(0, 4),
    )
    # keep the oracle's full enumeration small
    n = len(oracle_pool(m))
    while math.comb(n + m.max_poly_degree, n) > 3000:
        m.max_poly_degree -= 1
    return m


@pytest.mark.parametrize("seed", range(6))
def test_direct_candidates_match_the_filtered_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(10):
        m = random_candidate_model(rng)
        basis = oracle_basis(oracle_pool(m), m.max_poly_degree)
        for k in range(4):
            assert correction_candidates(m, k) == filter_candidates(basis, k)
        # the pool's order and repeats do not matter
        pool = oracle_pool(m)
        rng.shuffle(pool)
        assert enumerate_basis_monomials(pool + pool[:3], m.max_poly_degree) == basis


def test_candidate_count_matches_the_enumeration_on_every_fixture():
    checked = nonempty = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        spec = parse_document(path.read_text(encoding="utf-8")).spec
        # su(2) on the plane at jet 2 has the largest pool: 3 s of walks
        # that find nothing at bidegree (3, 3)
        for jet in range(2 if path.stem == "su2_plane" else 3):
            for deg in range(6):
                m = replace(spec, max_jet_order=jet, max_poly_degree=deg)
                for k in (1, 2, 3):
                    count = lift_candidate_count(m, k)
                    if count > MAX_LIFT_CANDIDATES:
                        continue
                    assert len(correction_candidates(m, k)) == count, (path.stem, jet, deg, k)
                    checked += 1
                    nonempty += count > 0
    assert checked >= 500 and nonempty >= 100, (checked, nonempty)


def test_oversized_ansatz_is_refused_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was enumerated")

    monkeypatch.setattr("bvforge.master.enumerate_basis_monomials", refuse)
    spec = parse_document((FIXTURES / "open_algebra.bv").read_text(encoding="utf-8")).spec
    m = replace(spec, max_poly_degree=30)
    assert lift_candidate_count(m, 2) == 19082 > MAX_LIFT_CANDIDATES
    with pytest.raises(ValueError, match="19082 candidate monomials"):
        correction_candidates(m, 2)


def test_direct_candidates_edge_cases():
    # degree bound 0: only the constant, which has antifield number 0
    m = replace(open_algebra_model(), max_poly_degree=0)
    assert correction_candidates(m, 0) == [LocalFunction.one()] == oracle_candidates(m, 0)
    assert correction_candidates(m, 1) == []
    # antifield number 0: the constant and the field monomials
    m = replace(open_algebra_model(), max_poly_degree=2)
    cands = correction_candidates(m, 0)
    assert cands[0] == LocalFunction.one()
    assert cands == oracle_candidates(m, 0)
    assert len(cands) == 1 + 3 + 6
    # no gauge indices: no ghosts, so no candidate of positive antifield number
    bare = ModelSpec(spatial_dim=1, fields=("1", "2"), gauge_indices=(),
                     lagrangian=LocalFunction.zero(), max_jet_order=1, max_poly_degree=3)
    assert correction_candidates(bare, 0) == oracle_candidates(bare, 0)
    assert correction_candidates(bare, 1) == []
    # a bidegree beyond every monomial of the degree bound
    assert correction_candidates(open_algebra_model(), 3) == oracle_candidates(open_algebra_model(), 3)
    assert correction_candidates(replace(open_algebra_model(), max_poly_degree=2), 2) == []
    assert enumerate_basis_monomials([ghost("1"), antifield("1")], 4, bidegree=(2, 2)) == []


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


def test_benchmark_lifts_keep_their_candidate_counts():
    finite = replace(open_algebra_model(), max_poly_degree=9)
    assert len(correction_candidates(finite, 2)) == 336
    on_a_line = parse_document(OPEN_ALGEBRA_ON_A_LINE).spec
    assert len(correction_candidates(on_a_line, 2)) == 282


# ---------------------------------------------------------------- quantum check

def test_quantum_check_on_one_pair_action():
    S = gen(field("1")) * gen(antifield("1"))
    report = quantum_master_check(S)
    assert report.classical.is_zero
    assert report.delta == LocalFunction.one()
    assert report.quantum_residual == -LocalFunction.one()
    assert not report.satisfied


def test_quantum_check_on_rotation_ghost_action():
    S2 = build_stage_action(ghost_so3_model(), 2)
    report = quantum_master_check(S2)
    assert report.classical.is_zero
    assert report.delta.is_zero
    assert report.satisfied


def test_quantum_check_trivial_and_gated():
    report = quantum_master_check(LocalFunction.zero())
    assert report.satisfied
    with pytest.raises(JetModelUnsupported):
        quantum_master_check(build_stage_action(curl_model(), 1))
