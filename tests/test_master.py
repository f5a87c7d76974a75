"""Staged actions, Koszul-Tate lifting, and the master-equation solver."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from bvforge.algebra import (
    LocalFunction,
    antifield,
    antighost,
    base,
    decompose_by_antifield_number,
    field,
    gen,
    ghost,
    sum_of,
)
import bvforge.jet
from bvforge import master
from bvforge.bracket import JetModelUnsupported, antibracket, bv_laplacian
from bvforge.cli import run_command
from bvforge.jet import (
    ModelSpec,
    all_multi_indices,
    check_noether,
    enumerate_basis_monomials,
    families,
    functional_parts,
    variational_derivative,
)
from bvforge.master import (
    MAX_LIFT_CANDIDATES,
    BVAction,
    MissingStructureFunctions,
    NoetherPreconditionFailed,
    build_stage_action,
    correction_candidates,
    default_stage,
    kt_differential,
    lift_candidate_count,
    master_residual,
    quantum_master_check,
    solve_master,
)
from bvforge.modelfile import parse_document
from harnesses import bench_models, match_coefficients, per_candidate_lift_system
from shared import (FIXTURES, OPEN_ALGEBRA_ON_A_LINE, curl_model, full_so3_model,
                    ghost_so3_model, non_jacobi_ghost_model, open_algebra_model, scalar_model)

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
    assert not functional_parts(twice, m.spatial_dim)


def old_kt_differential(S, f):
    """kt as the stratum k - 1 of the full bracket (S, f_k): the oracle."""
    return sum_of(
        decompose_by_antifield_number(antibracket(S.total, part, S.spatial_dim)).get(
            k - 1, LocalFunction.zero())
        for k, part in decompose_by_antifield_number(f).items())


def test_kt_matches_the_full_bracket_on_every_fixture():
    """kt, read off S_0 and S_1, equals the stratum of (S, f) on the lift
    candidates of every fixture and on sums across strata, for the staged
    and the solved actions."""
    rng = random.Random(20261018)
    checked = jet_checked = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        m = parse_document(path.read_text(encoding="utf-8")).spec
        staged = build_stage_action(m, default_stage(m))
        actions = [staged]
        if check_noether(m).all_pass:
            actions.append(solve_master(m, 3)[0])
        cands = [c for k in (1, 2, 3) for c in correction_candidates(m, k)]
        mixed = [sum_of(rng.choice([-1, 2, Fraction(1, 3)]) * c for c in rng.sample(cands, 3))
                 for _ in range(5)] if len(cands) >= 3 else []
        for S in actions:
            # the lift adds antifield number 2 and up, so S_0 and S_1 stay
            assert S.kt_sources == staged.kt_sources
            for f in cands + mixed:
                assert kt_differential(S, f) == old_kt_differential(S, f), (path.stem, f)
                checked += 1
                jet_checked += m.spatial_dim > 0
    assert checked >= 1900 and jet_checked >= 800, (checked, jet_checked)


def family_kt_sources(m: ModelSpec, S: BVAction):
    """The kt sources family by family, over every family the model
    declares: the pair (z, z*) with a the antifield number of z* gives
    (S_{a-1}, z*) = dR S_{a-1}/dz, kept when it does not vanish."""
    declared = sorted([field(a) for a in m.fields] + [ghost(alpha) for alpha in m.gauge_indices])
    out = []
    for z in declared:
        zs = z.conjugate()
        source = antibracket(S.stratum(zs.antifield_number - 1), gen(zs), S.spatial_dim)
        if source:
            out.append((zs, source))
    return tuple(out)


def test_kt_sources_match_the_per_family_oracle():
    # a family absent from its stratum (rotation's fields, with a zero
    # lagrangian; the fields of an action staged at 0) yields no source
    absent = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        m = parse_document(path.read_text(encoding="utf-8")).spec
        actions = [build_stage_action(m, stage) for stage in range(default_stage(m) + 1)]
        if check_noether(m).all_pass:
            actions.append(solve_master(m, 3)[0])
        for S in actions:
            assert S.kt_sources == family_kt_sources(m, S), path.stem
            sourced = {zs for zs, _ in S.kt_sources}
            for zs in (antifield(a) for a in m.fields):
                if zs.conjugate() not in families(S.stratum(0)):
                    assert zs not in sourced, (path.stem, zs)
                    absent += 1
            for zs in (antighost(alpha) for alpha in m.gauge_indices):
                if zs.conjugate() not in families(S.stratum(1)):
                    assert zs not in sourced, (path.stem, zs)
                    absent += 1
    rotation = parse_document((FIXTURES / "rotation.bv").read_text(encoding="utf-8")).spec
    S = build_stage_action(rotation, 2)
    assert {zs.kind for zs, _ in S.kt_sources} == {antighost("1").kind}
    assert absent >= 20, absent


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
        assert not functional_parts(outer, 2)


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
        for jet in range(3):
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


def test_benchmark_lifts_keep_their_candidate_counts():
    finite = replace(open_algebra_model(), max_poly_degree=9)
    assert len(correction_candidates(finite, 2)) == 336
    on_a_line = parse_document(OPEN_ALGEBRA_ON_A_LINE).spec
    assert len(correction_candidates(on_a_line, 2)) == 282


def _solve_open_algebra_on_a_line(tmp_path):
    path = tmp_path / "open_algebra_on_a_line.bv"
    path.write_text(OPEN_ALGEBRA_ON_A_LINE, encoding="utf-8")
    assert run_command(["solve", str(path)]) == (
        0, "lift[1] = -ustar[2]*ustar[3]*C[1]*C[2]\nPASS\n")


def test_jet_lift_takes_euler_derivatives_only_by_families_present(monkeypatch, tmp_path):
    # each one-walk Euler call of the lift returns exactly the families
    # its argument holds whose one-family derivative does not vanish
    matches = []
    original = bvforge.jet.euler_derivatives

    def recording(f):
        out = original(f)
        nonzero = [z for z in families(f) if variational_derivative(f, z, "left")]
        matches.append(list(out) == nonzero)
        return out

    monkeypatch.setattr(bvforge.jet, "euler_derivatives", recording)
    _solve_open_algebra_on_a_line(tmp_path)
    assert matches
    assert all(matches)


def test_kt_reads_one_derivative_per_source(monkeypatch, tmp_path):
    # kt differentiates a candidate only by the z* of its sources, never
    # by the all-family walk that the divergence projection takes
    inside, euler_calls, families_read = [], [], []
    originals = {name: getattr(module, name) for module, name in
                 ((master, "kt_differential"), (bvforge.jet, "euler_derivatives"),
                  (master, "variational_derivative"))}

    def kt(S, f):
        sources = {zs for zs, _ in S.kt_sources}
        inside.append(sources)
        try:
            return originals["kt_differential"](S, f)
        finally:
            inside.pop()

    def euler(f):
        if inside:
            euler_calls.append(f)
        return originals["euler_derivatives"](f)

    def variational(f, z, side="left"):
        if inside:
            families_read.append(z in inside[-1])
        return originals["variational_derivative"](f, z, side)

    monkeypatch.setattr(master, "kt_differential", kt)
    monkeypatch.setattr(bvforge.jet, "euler_derivatives", euler)
    monkeypatch.setattr(master, "variational_derivative", variational)
    _solve_open_algebra_on_a_line(tmp_path)
    assert not euler_calls
    assert families_read and all(families_read)


def test_large_jet_lift_keeps_its_report(tmp_path):
    # 1530 candidates with a 504-dimensional solution space: the lift's
    # pivot columns, and so its report, follow the candidate order
    path = tmp_path / "open_algebra_on_a_line.bv"
    path.write_text(OPEN_ALGEBRA_ON_A_LINE, encoding="utf-8")
    spec = parse_document(OPEN_ALGEBRA_ON_A_LINE).spec
    assert lift_candidate_count(replace(spec, max_jet_order=2, max_poly_degree=4), 2) == 1530
    status, out = run_command(["solve", str(path), "--bounds", "jet=2,deg=4"])
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "7c47a5877b769544195534fa7ce361aff461166802b26731ae53cbea8e6ebc31")


def old_finite_lift_system(m, S, R, stratum):
    """The system of a dimension-0 lift as it was built before the
    functional projection, the sides matched directly in one block: the
    oracle."""
    candidates = correction_candidates(m, stratum + 1)
    half_R = Fraction(-1, 2) * R
    scale = math.lcm(*(c.denominator for f in (S.stratum(0), S.stratum(1), half_R)
                       for _, c in f.terms()))
    cleared = BVAction.from_total(scale * S.total, S.spatial_dim, S.solved_up_to)
    return match_coefficients(
        [(scale * half_R, [kt_differential(cleared, cand) for cand in candidates])])


def test_finite_lifts_match_the_single_block_oracle(monkeypatch):
    # every lift of every finite fixture, and of the open algebra at
    # deg=9 and at a deg=3 too low to lift it, matches its sides through
    # ``functional_parts`` into the system the one direct block gave
    solve_lift, solve = master._solve_lift, master.solve_linear_system
    systems, checked = [], []

    def recording_solve(equations, rhs, num_unknowns):
        systems.append((equations, rhs))
        return solve(equations, rhs, num_unknowns)

    def checking_lift(m, S, R, stratum):
        systems.clear()
        out = solve_lift(m, S, R, stratum)
        if systems:
            assert systems == [old_finite_lift_system(m, S, R, stratum)], (m, stratum)
            checked.append((m.max_poly_degree, out[0] is not None))
        return out

    monkeypatch.setattr(master, "solve_linear_system", recording_solve)
    monkeypatch.setattr(master, "_solve_lift", checking_lift)
    specs = [parse_document(path.read_text(encoding="utf-8")).spec
             for path in sorted(FIXTURES.glob("*.bv"))]
    open_algebra = parse_document((FIXTURES / "open_algebra.bv").read_text(encoding="utf-8")).spec
    specs += [replace(open_algebra, max_poly_degree=deg) for deg in (9, 3)]
    for m in specs:
        if m.spatial_dim == 0 and check_noether(m).all_pass:
            solve_master(m, 4)
    assert {(4, True), (9, True), (3, False)} <= set(checked), checked


MIXED_MODEL = """\
dimension 1
fields 1 2 3
gauge 1 2
bounds jet=1 deg=4
lagrangian 1/2*x[1]*u[3]^2 + u[3; 1]*u[3]
generators
  r[1, 1] = x[1]*u[3] + u[2; 1]
  r[2, 2] = u[1] + u[2]*u[1; 1] + 1
"""


def _signed(terms: list[tuple[Fraction, str]]) -> str:
    """A sum of (coefficient, monomial) pairs in document syntax."""
    out = ""
    for c, mono in terms:
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out


def seeded_open_algebras(count: int = 40, seed: int = 20261021) -> list[str]:
    """Open algebras with seeded inhomogeneous gauge coefficients.

    The lagrangian depends on u[3] (and at dimension 1 on x[1] and u[3; 1])
    alone, so E_1 = E_2 = 0 and the Noether identities hold for any
    transformations of u[1] and u[2].  Each r[a, alpha] adds seeded
    monomials of mixed degree to the open algebra's q1*u[3] and q2*u[1],
    so the lift stratum is graded by no weights, and it lifts or is
    obstructed as the coefficients fall; every fourth model keeps the
    bare open algebra.  Half the models sit on a line.
    """
    rng = random.Random(seed)
    docs = []

    def coefficient() -> Fraction:
        return Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))

    for i in range(count):
        dim = i % 2
        atoms = ["u[1]", "u[2]", "u[3]"] + (["x[1]", "u[1; 1]", "u[3; 1]"] if dim else [])

        def extra(n: int) -> list[tuple[Fraction, str]]:
            return [(coefficient(), "*".join(rng.sample(atoms, rng.randint(0, 2))) or "1")
                    for _ in range(n * (i % 4 > 1))]

        lagrangian = [(coefficient(), "u[3]^2")]
        if dim:
            lagrangian.append((coefficient(), rng.choice(["x[1]*u[3]^2", "u[3; 1]^2", "u[3; 1]*u[3]"])))
        entries = {("1", "1"): [(coefficient(), "u[3]")] + extra(rng.randint(0, 2)),
                   ("2", "2"): [(coefficient(), "u[1]")] + extra(rng.randint(0, 2))}
        for key in (("1", "2"), ("2", "1")):
            if rng.random() < 0.4 and i % 4 > 1:
                entries[key] = extra(1)
        docs.append("\n".join(
            [f"dimension {dim}", "fields 1 2 3", "gauge 1 2",
             f"bounds jet=1 deg={rng.choice((3, 4)) if i % 4 > 1 else 4}",
             f"lagrangian {_signed(lagrangian)}",
             "generators"]
            + [f"  r[{a}, {alpha}] = {_signed(terms)}" for (a, alpha), terms in entries.items()]) + "\n")
    return docs


def test_generic_lifts_give_the_per_candidate_systems(monkeypatch, tmp_path):
    # the system that one kt and one projection of the generic ansatz give
    # is the per-candidate oracle's, equation for equation, key for key
    solve_lift, solve = master._solve_lift, master.solve_linear_system
    systems, outcomes = [], []

    def recording_solve(equations, rhs, num_unknowns):
        systems.append(([list(row.items()) for row in equations], list(rhs), num_unknowns))
        return solve(equations, rhs, num_unknowns)

    def checking_lift(m, S, R, stratum):
        systems.clear()
        out = solve_lift(m, S, R, stratum)
        equations, rhs = per_candidate_lift_system(m, S, R, stratum)
        expected = [([list(row.items()) for row in equations], rhs, out[1])] if out[1] else []
        assert systems == expected, (m, stratum)
        outcomes.append((m.spatial_dim, out[1], out[0] is not None))
        return out

    monkeypatch.setattr(master, "solve_linear_system", recording_solve)
    monkeypatch.setattr(master, "_solve_lift", checking_lift)

    def solve_lifts(text: str, *flags: str) -> list:
        outcomes.clear()
        path = tmp_path / "model.bv"
        path.write_text(text, encoding="utf-8")
        run_command(["solve", str(path), *flags])
        return list(outcomes)

    fixtures = [outcome for path in sorted(FIXTURES.glob("*.bv"))
                for flags in ((), ("--bounds", "deg=3"))
                for outcome in solve_lifts(path.read_text(encoding="utf-8"), *flags)]
    # open_algebra.bv lifts at deg=4 and not at deg=3; su2_plane.bv at
    # deg=3 (its jet bound is 1) is su(2) on the plane at jet=1, deg=3
    assert fixtures == [(0, 11, True), (0, 2, False), (2, 0, False), (2, 324, True)]
    models = bench_models()
    for workload, count in (("lift-jet", 282), ("lift-finite", 336)):
        for seed in range(8):
            job = models.make_job(workload, seed)
            assert solve_lifts(job.model_text, *job.flags) == [(workload == "lift-jet", count, True)]
    assert solve_lifts(MIXED_MODEL) == [(1, 282, False)]
    seeded = [outcome for text in seeded_open_algebras() for outcome in solve_lifts(text)]
    assert {(dim, lifted) for dim, _, lifted in seeded} == {(0, True), (0, False), (1, True), (1, False)}
    assert len(seeded) >= 40


def test_jet_lift_reaches_every_probed_kernel_through_its_bindings(monkeypatch, tmp_path):
    # the benchmark times these by rebinding every module name that holds
    # them, so a jet lift must keep calling each through such a name
    calls = dict.fromkeys([("bvforge.jet", "variational_derivative"),
                           ("bvforge.jet", "total_derivative"),
                           ("bvforge.algebra", "graded_partial"),
                           ("bvforge.master", "kt_differential")], 0)
    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("bvforge.")]
    for key in calls:
        original = getattr(sys.modules[key[0]], key[1])

        def counting(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    _solve_open_algebra_on_a_line(tmp_path)
    assert all(calls.values()), calls


# ---------------------------------------------------------------- quantum check

def test_quantum_check_on_one_pair_action():
    S = gen(field("1")) * gen(antifield("1"))
    report = quantum_master_check(S)
    assert report.classical.is_zero
    assert report.delta == LocalFunction.one()
    assert report.quantum_residual == -LocalFunction.one()
    assert not report.quantum_residual.is_zero


def test_quantum_check_on_rotation_ghost_action():
    S2 = build_stage_action(ghost_so3_model(), 2)
    report = quantum_master_check(S2)
    assert report.classical.is_zero
    assert report.delta.is_zero
    assert report.quantum_residual.is_zero


QUANTUM_POOL = (field("1"), antifield("1"), field("2"), antifield("2"),
                ghost("1"), antighost("1"), ghost("2"), antighost("2"))


def random_of_parity(rng: random.Random, parity: int) -> LocalFunction:
    """A nonzero sum of up to four monomials over QUANTUM_POOL, all of one parity."""
    f = LocalFunction.zero()
    while f.is_zero:
        for _ in range(rng.randint(1, 4)):
            flat = [rng.choice(QUANTUM_POOL) for _ in range(rng.randint(1, 4))]
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            mono = LocalFunction.from_terms([(tuple((g, 1) for g in flat), c)])
            if not mono.is_zero and mono.parity() == parity:
                f = f + mono
    return f


def quantum_square_defect(S, f, c=-2, laplacian=bv_laplacian, factor=2) -> LocalFunction:
    """(Delta + c (S, .))^2 f - factor ((S, S) - Delta S, f), with the
    residual as ``quantum_master_check`` reads it.  The defect vanishes for
    every S and f exactly when the square of Delta_S = Delta - 2 (S, .) is
    twice the bracket with the residual, so Delta_S^2 = 0 is the quantum
    master equation."""
    def twisted(g):
        return laplacian(g) + c * antibracket(S, g, 0)
    residual = quantum_master_check(S).quantum_residual
    return twisted(twisted(f)) - factor * antibracket(residual, f, 0)


def test_the_twisted_laplacian_squares_to_the_quantum_residual():
    probes = [gen(g) for g in QUANTUM_POOL]
    fixtures = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        m = parse_document(path.read_text(encoding="utf-8")).spec
        if m.spatial_dim or not check_noether(m).all_pass:
            continue
        S = solve_master(m, 3)[0].total
        for f in probes + [gen(z) for z in families(S)] + [S, S * gen(ghost("1"))]:
            assert quantum_square_defect(S, f).is_zero, (path.stem, f)
        fixtures += 1
    assert fixtures >= 8
    rng = random.Random(20261020)
    mutants = {"c = -1": {"c": -1}, "flipped Laplacian": {"laplacian": lambda g: -bv_laplacian(g)},
               "no factor 2": {"factor": 1}}
    caught = dict.fromkeys(mutants, 0)
    for _ in range(40):
        S = random_of_parity(rng, 0)
        for parity in (0, 1):
            f = random_of_parity(rng, parity)
            assert quantum_square_defect(S, f).is_zero, (S, f)
            for name, mutant in mutants.items():
                caught[name] += not quantum_square_defect(S, f, **mutant).is_zero
    assert min(caught.values()) >= 10, caught


def test_quantum_check_trivial_and_gated():
    report = quantum_master_check(LocalFunction.zero())
    assert report.quantum_residual.is_zero
    with pytest.raises(JetModelUnsupported):
        quantum_master_check(build_stage_action(curl_model(), 1))
