"""Jet-space operators, Noether checks, and gauge-commutator decomposition."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from bvforge.algebra import (
    Factors,
    GeneratorKind,
    LocalFunction,
    antifield,
    antighost,
    base,
    field,
    gen,
    ghost,
    graded_partial,
    sum_of,
)
from bvforge import master
from bvforge.bracket import antibracket, family_pairs
from bvforge.jet import (
    BaseCoordinateProlongation,
    IndexOutOfRange,
    ModelSpec,
    all_multi_indices,
    check_noether,
    enumerate_basis_monomials,
    euler_derivatives,
    euler_lagrange,
    families,
    functional_parts,
    prolong,
    total_derivative,
    total_derivative_multi,
    variational_derivative,
)
from bvforge.modelfile import parse_document
from harnesses import assert_ints_when_integral
from gauge import (
    NonFieldGeneratorPresent,
    apply_evolutionary,
    gauge_commutator,
    is_total_divergence,
)
from shared import EPS, FIXTURES, HALF, curl_model, full_so3_model, open_algebra_model

U = field("1")
U1 = field("1", (1,))
U11 = field("1", (1, 1))
X1 = base(1)


def random_field_function(rng, dim=2, terms=3, max_len=3, max_jet=2):
    pool = [base(i) for i in range(1, dim + 1)]
    for a in ("1", "2"):
        for jet in all_multi_indices(dim, max_jet):
            pool.append(field(a, jet))
    pairs = []
    for _ in range(terms):
        k = rng.randint(0, max_len)
        flat = [rng.choice(pool) for _ in range(k)]
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        pairs.append((tuple((g, 1) for g in flat), coeff))
    return LocalFunction.from_terms(pairs)


def random_graded_function(rng, dim=2, terms=3, max_len=3):
    pool = [base(i) for i in range(1, dim + 1)]
    for jet in all_multi_indices(dim, 2):
        pool.append(field("1", jet))
        pool.append(antifield("1", jet))
        pool.append(ghost("g", jet))
    pairs = []
    for _ in range(terms):
        k = rng.randint(0, max_len)
        flat = [rng.choice(pool) for _ in range(k)]
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        pairs.append((tuple((g, 1) for g in flat), coeff))
    return LocalFunction.from_terms(pairs)


# ---------------------------------------------------------------- prolong

def test_prolong_appends_direction():
    assert prolong(U, 1) == U1
    assert prolong(field("1", (2,)), 1) == field("1", (1, 2))


def test_prolong_rejects_base_coordinates():
    with pytest.raises(BaseCoordinateProlongation):
        prolong(X1, 1)


def test_prolong_checks_direction_range():
    with pytest.raises(IndexOutOfRange):
        prolong(U, 0)
    with pytest.raises(IndexOutOfRange):
        prolong(U, 3, spatial_dim=2)


# ---------------------------------------------------------------- total derivative

def test_total_derivative_on_generators():
    assert total_derivative(gen(U), 1) == gen(U1)
    assert total_derivative(gen(X1), 1) == LocalFunction.one()
    assert total_derivative(gen(X1), 2) == LocalFunction.zero()
    assert total_derivative(gen(ghost("g")), 1) == gen(ghost("g", (1,)))
    assert total_derivative(gen(antifield("1", (2,))), 1) == gen(antifield("1", (1, 2)))


def test_total_derivative_leibniz_example():
    f = gen(U) * gen(U1)
    assert total_derivative(f, 1) == gen(U1) ** 2 + gen(U) * gen(U11)


def test_total_derivative_is_a_derivation():
    rng = random.Random(3001)
    for _ in range(40):
        f = random_graded_function(rng)
        g = random_graded_function(rng)
        i = rng.choice((1, 2))
        assert total_derivative(f * g, i) == total_derivative(f, i) * g + f * total_derivative(g, i)


def test_total_derivatives_commute():
    rng = random.Random(3002)
    for _ in range(200):
        f = random_graded_function(rng)
        d12 = total_derivative(total_derivative(f, 1), 2)
        d21 = total_derivative(total_derivative(f, 2), 1)
        assert d12 == d21


def test_total_derivative_multi_ignores_order():
    f = gen(U) ** 2 * gen(X1)
    assert total_derivative_multi(f, (1, 2)) == total_derivative_multi(f, (2, 1))


def old_total_derivative(f, i):
    """D_i as graded partials times prolonged generators, through products: the oracle."""
    return sum_of([graded_partial(f, base(i), "left")] + [
        gen(prolong(z, i)) * graded_partial(f, z, "left")
        for z in f.generators() if z.kind is not GeneratorKind.BASE])


def old_enumerate_basis_monomials(pool, max_degree, bidegree=None):
    """The depth-first enumeration over the sorted pool, pruned by the
    bidegree left to reach: the oracle."""
    ordered = sorted(set(pool))
    gens = [(g, g.is_odd, g.bidegree) for g in ordered]
    by_degree: list[list[Factors]] = [[] for _ in range(max_degree + 1)]
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
            if bidegree is not None:
                dp, dq = bidegree[0] - p - gp, bidegree[1] - q - gq
                # the rest needs at least dp + ceil(dq / 2) more factors
                if dp < 0 or dq < 0 or degree + 1 + dp + (dq + 1) // 2 > max_degree:
                    continue
            if factors and i == start:  # the last factor again
                if odd:
                    continue
                child = factors[:-1] + ((g, factors[-1][1] + 1),)
            else:
                child = factors + ((g, 1),)
            children.append((i, child, degree + 1, p + gp, q + gq))
        stack.extend(reversed(children))
    return [LocalFunction({factors: 1}, _internal=True)
            for level in by_degree for factors in level]


def random_jet_function(rng, dim=2, terms=4, max_len=5, order=2):
    """Terms over all five kinds up to the jet order, even exponents up to
    3; an odd factor drawn twice makes its term vanish."""
    pool = [base(i) for i in range(1, dim + 1)]
    for jet in all_multi_indices(dim, order):
        pool += [field("1", jet), field("2", jet), antifield("1", jet),
                 ghost("g", jet), antighost("g", jet)]
    pairs = []
    for _ in range(rng.randint(0, terms)):
        flat = [(g, 1 if g.is_odd else rng.randint(1, 3))
                for g in rng.choices(pool, k=rng.randint(0, max_len))]
        pairs.append((tuple(flat), Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
    return LocalFunction.from_terms(pairs)


def test_leibniz_total_derivative_matches_the_product_oracle():
    rng = random.Random(20261018)
    seen = {"odd": 0, "repeated even": 0, "base": 0, "odd meets its prolongation": 0}
    for _ in range(1500):
        f = random_jet_function(rng)
        for factors, _ in f.terms():
            gens = {g for g, _ in factors}
            seen["odd"] += any(g.is_odd for g in gens)
            seen["repeated even"] += any(e > 1 for _, e in factors)
            seen["base"] += any(g.kind is GeneratorKind.BASE for g in gens)
            seen["odd meets its prolongation"] += any(
                g.is_odd and prolong(g, i) in gens for g in gens for i in (1, 2))
        for i in (1, 2, 3):
            assert total_derivative(f, i) == old_total_derivative(f, i), (f, i)
    assert min(seen.values()) >= 100, seen


def test_prolongations_are_shared():
    assert prolong(field("1"), 1) is prolong(field("1"), 1)
    [(factors, _)] = total_derivative(gen(field("1")), 1).terms()
    assert factors[0][0] is prolong(U, 1)
    g = ghost("a", (2,))
    assert prolong(g, 1) is ghost("a", (1, 2)) is prolong(ghost("a", (1,)), 2)
    # generators compare by identity, so these lists hold the very objects
    f = gen(field("1", (1, 1))) * gen(g) + gen(antifield("1"))
    assert families(f) == [field("1"), antifield("1"), ghost("a")]
    assert list(euler_derivatives(gen(U1) ** 2)) == [U]


def test_derivatives_store_ints_exactly_when_integral():
    # 1/2 u^2 and the like give integral Fractions under e * c
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(150):
        f = random_graded_function(rng) * random_graded_function(rng)
        f = f + random_field_function(rng) ** 2
        results = [total_derivative(f, 1), total_derivative_multi(f, (1, 2)),
                   *euler_derivatives(f).values(), variational_derivative(f, field("1"), "right"),
                   euler_lagrange(f, "1")]
        for h in results:
            seen += assert_ints_when_integral(c for _, c in h.terms())
    assert seen["int"] > 1000 and seen["Fraction"] > 1000, seen


# ---------------------------------------------------------------- Euler operator

def test_euler_lagrange_basics():
    assert euler_lagrange(gen(U), "1") == LocalFunction.one()
    assert euler_lagrange(HALF * gen(U1) ** 2, "1") == -gen(U11)


def test_euler_lagrange_kills_total_derivatives():
    f = total_derivative(gen(U) * gen(U1), 1)
    assert euler_lagrange(f, "1").is_zero


def test_euler_lagrange_kills_divergences_randomised():
    rng = random.Random(3003)
    for _ in range(200):
        j1 = random_field_function(rng)
        j2 = random_field_function(rng)
        div = total_derivative(j1, 1) + total_derivative(j2, 2)
        assert euler_lagrange(div, "1").is_zero
        assert euler_lagrange(div, "2").is_zero


def test_euler_lagrange_is_linear_and_kills_x_polynomials():
    rng = random.Random(3004)
    assert euler_lagrange(LocalFunction.constant(7), "1").is_zero
    assert euler_lagrange(gen(X1) ** 3 + 2 * gen(base(2)), "1").is_zero
    for _ in range(20):
        f = random_field_function(rng)
        g = random_field_function(rng)
        lhs = euler_lagrange(3 * f - 2 * g, "1")
        rhs = 3 * euler_lagrange(f, "1") - 2 * euler_lagrange(g, "1")
        assert lhs == rhs


def old_variational_derivative(f, z, side="left"):
    """(-D)_J df/dz_J taken one J at a time and summed: the oracle."""
    terms = []
    for g in f.generators():
        if g.kind is z.kind and g.family == z.family:
            term = total_derivative_multi(graded_partial(f, g, side), g.jet)
            terms.append(-term if len(g.jet) % 2 else term)
    return sum_of(terms)


def old_antibracket_variational(f, g):
    """The variational bracket over the per-J oracle."""
    return sum_of(
        old_variational_derivative(f, z, "right") * old_variational_derivative(g, zs, "left")
        - old_variational_derivative(f, zs, "right") * old_variational_derivative(g, z, "left")
        for z, zs in family_pairs(f, g))


def test_euler_derivatives_match_the_per_multi_index_oracle():
    rng = random.Random(20261019)
    seen = {kind: 0 for kind in GeneratorKind}
    seen.update({"odd": 0, "repeated even": 0, "odd meets its prolongation": 0,
                 "jet order 3": 0, "int coefficients": 0})
    for trial in range(400):
        dim, order = rng.randint(1, 3), rng.randint(0, 3)
        f, g = (random_jet_function(rng, dim=dim, order=order) for _ in range(2))
        if trial % 2:
            f = 6 * f  # every coefficient integral, so every one an int
            seen["int coefficients"] += bool(f) and all(type(c) is int for _, c in f.terms())
        for factors, _ in f.terms():
            gens = {h for h, _ in factors}
            for h in gens:
                seen[h.kind] += 1
            seen["odd"] += any(h.is_odd for h in gens)
            seen["repeated even"] += any(e > 1 for _, e in factors)
            seen["odd meets its prolongation"] += any(
                h.is_odd and prolong(h, i) in gens for h in gens for i in range(1, dim + 1))
            seen["jet order 3"] += any(len(h.jet) == 3 for h in gens)
        expected = {z: old_variational_derivative(f, z, "left") for z in families(f)}
        euler = euler_derivatives(f)
        assert euler == {z: e for z, e in expected.items() if e}, f
        assert list(euler) == sorted(euler)
        for side in ("left", "right"):
            for z in families(f):
                assert variational_derivative(f, z, side) == old_variational_derivative(f, z, side), (
                    f, z, side)
        assert antibracket(f, g, dim) == old_antibracket_variational(f, g), (f, g)
    assert min(seen.values()) >= 25, seen


# ---------------------------------------------------------------- divergence tests

def test_is_total_divergence_examples():
    assert is_total_divergence(gen(U) * gen(U11) + gen(U1) * gen(U1))
    assert not is_total_divergence(gen(U))
    assert is_total_divergence(LocalFunction.zero())


def test_is_total_divergence_gate():
    with pytest.raises(NonFieldGeneratorPresent):
        is_total_divergence(gen(ghost("g")))
    with pytest.raises(NonFieldGeneratorPresent, match=r"found ustar\[1\]$"):
        is_total_divergence(gen(ghost("g")) * gen(antifield("1")) + gen(U))


def test_functionals_equivalent_examples():
    # two integrands define the same functional iff they differ by a divergence
    L, K = gen(U) * gen(U11), -(gen(U1) ** 2)
    assert is_total_divergence(L - K)
    assert not is_total_divergence(gen(U) - LocalFunction.zero())
    f = gen(U) ** 2 * gen(X1)
    assert is_total_divergence(f - f)


def test_functional_vanishes_spans_all_sectors():
    f = gen(antifield("1")) * gen(ghost("g", (1,)))
    div = total_derivative(f, 1)
    assert not functional_parts(div, spatial_dim=1)
    assert functional_parts(f, spatial_dim=1)


def test_functional_vanishes_dimension_zero_is_exact_equality():
    f = gen(U) * gen(antifield("1"))
    assert functional_parts(f, spatial_dim=0)
    assert not functional_parts(f - f, spatial_dim=0)
    # constants integrate to zero only in positive dimension
    assert not functional_parts(LocalFunction.one(), spatial_dim=1)
    assert functional_parts(LocalFunction.one(), spatial_dim=0)


def old_functional_vanishes(f, spatial_dim):
    """The divergence test as a yes/no verdict, before the parts: the oracle."""
    if spatial_dim == 0:
        return f.is_zero
    return not euler_derivatives(f)


def test_functional_parts_match_the_old_divergence_test():
    rng = random.Random(20261021)
    verdicts = {(dim, vanishes): 0 for dim in (0, 1, 2) for vanishes in (False, True)}
    for dim in (0, 1, 2):
        samples = [LocalFunction.constant(c) for c in (0, 1, Fraction(-3, 2))]
        for _ in range(60):
            f = random_graded_function(rng, dim=dim)
            samples += [f, f - f, total_derivative(f, rng.randint(1, dim)) if dim else 2 * f]
        for f in samples:
            parts = functional_parts(f, dim)
            vanishes = old_functional_vanishes(f, dim)
            assert (not parts) == vanishes, (f, dim)
            if dim == 0:
                assert parts == ({} if vanishes else {(): f})
            verdicts[dim, vanishes] += 1
    assert min(verdicts.values()) >= 20, verdicts


# ---------------------------------------------------------------- model validation

def rigid_shift_model():
    """A free scalar on a line with the rigid shift r[1, e] = 1, whose Noether identity fails."""
    return ModelSpec(
        spatial_dim=1,
        fields=("1",),
        gauge_indices=("e",),
        lagrangian=HALF * gen(U1) ** 2,
        gauge_coefficients={("1", "e", ()): LocalFunction.one()},
    )


def so3_model():
    """Rotations of a triplet of scalars with no structure functions given."""
    return replace(full_so3_model(), structure_functions=None, max_poly_degree=2)


def test_model_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=1, fields=("1",), gauge_indices=(),
                  lagrangian=gen(ghost("g")))
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=1, fields=("1",), gauge_indices=(),
                  lagrangian=gen(field("2")))
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=1, fields=("1", "1"), gauge_indices=(),
                  lagrangian=LocalFunction.zero())
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=1, fields=("1",), gauge_indices=("e",),
                  lagrangian=LocalFunction.zero(),
                  gauge_coefficients={("1", "zz", ()): LocalFunction.one()})


def test_model_antisymmetry_validation():
    lf = LocalFunction.one()
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=0, fields=("1",), gauge_indices=("1", "2"),
                  lagrangian=LocalFunction.zero(),
                  structure_functions={("1", "1", "2"): lf, ("1", "2", "1"): lf})
    with pytest.raises(ValueError):
        ModelSpec(spatial_dim=0, fields=("1",), gauge_indices=("1", "2"),
                  lagrangian=LocalFunction.zero(),
                  structure_functions={("1", "2", "2"): lf})
    m = ModelSpec(spatial_dim=0, fields=("1",), gauge_indices=("1", "2"),
                  lagrangian=LocalFunction.zero(),
                  structure_functions={("1", "1", "2"): lf})
    assert m.structure_function("1", "2", "1") == -lf
    assert m.structure_function("2", "1", "2").is_zero


def test_model_validation_checks_structure_and_closure_tables():
    # an entry the stage action cannot reach used to be dropped silently
    one, ghosted = LocalFunction.one(), gen(ghost("1"))

    def spec(structure=None, closure=None):
        return ModelSpec(spatial_dim=1, fields=("1", "2"), gauge_indices=("1", "2"),
                         lagrangian=LocalFunction.zero(),
                         structure_functions=structure, closure_functions=closure)

    for structure, closure, message in (
        ({("9", "1", "2"): one}, None, "structure function .* unknown gauge index '9'"),
        ({("1", "1", "x"): one}, None, "unknown gauge index 'x'"),
        ({("1", "2"): one}, None, "needs 3 entries"),
        ({("1", "1", "2"): ghosted}, None, "structure function .* C atoms do not belong"),
        ({("1", "1", "2"): gen(field("3"))}, None, "unknown field family '3'"),
        ({("1", "1", "2"): gen(base(2))}, None, "direction 2 exceeds dimension 1"),
        (None, {("1", "3", "1", "2"): one}, "closure function .* unknown field family '3'"),
        (None, {("1", "2", "1", "9"): one}, "unknown gauge index '9'"),
        (None, {("1", "2", "1"): one}, "needs 4 entries"),
        (None, {("1", "2", "1", "2"): ghosted}, "closure function .* C atoms do not belong"),
    ):
        with pytest.raises(ValueError, match=message):
            spec(structure, closure)
    m = spec({("1", "1", "2"): gen(field("1", (1,)))}, {("1", "2", "1", "2"): one})
    assert m.closure_function("2", "1", "1", "2") == -one


# ---------------------------------------------------------------- Noether

def test_noether_fails_on_rigid_scalar_shift():
    report = check_noether(rigid_shift_model())
    assert report.per_identity_residual["e"] == -gen(U11)
    assert not report.all_pass


def test_noether_passes_on_curl_model():
    report = check_noether(replace(curl_model(), max_jet_order=3, max_poly_degree=4))
    assert report.per_identity_residual["e"].is_zero
    assert report.all_pass


def test_noether_passes_with_no_gauge_coefficients():
    m = ModelSpec(spatial_dim=1, fields=("1",), gauge_indices=("e",),
                  lagrangian=gen(U) ** 2)
    assert check_noether(m).all_pass


def test_noether_passes_on_rotation_model():
    m = so3_model()
    assert check_noether(m).all_pass


# ---------------------------------------------------------------- pairing identity

def pairing_contraction(m, mu):
    """sum of D_J E_b(L) * mu[b, J, a, I] * D_I E_a(L) over the pairing."""
    el = {a: euler_lagrange(m.lagrangian, a) for a in m.fields}
    return sum_of(
        total_derivative_multi(el[b], J, m.spatial_dim) * value
        * total_derivative_multi(el[a], I, m.spatial_dim)
        for (b, J, a, I), value in sorted(mu.items()))


def test_trivial_identity_holds_for_antisymmetric_pairing():
    m = rigid_shift_model()
    mu = {
        ("1", (1,), "1", ()): gen(U),
        ("1", (), "1", (1,)): -gen(U),
    }
    assert pairing_contraction(m, mu).is_zero


def test_trivial_identity_rejects_symmetric_pairing():
    m = rigid_shift_model()
    assert not pairing_contraction(m, {
        ("1", (1,), "1", ()): gen(U),
        ("1", (), "1", (1,)): gen(U),
    }).is_zero
    assert not pairing_contraction(m, {("1", (), "1", ()): gen(U)}).is_zero


def test_trivial_identity_empty_pairing():
    assert pairing_contraction(rigid_shift_model(), {}).is_zero


# ---------------------------------------------------------------- evolutionary fields

def test_apply_evolutionary_prolongs_characteristics():
    m = rigid_shift_model()
    q = {"1": gen(U) ** 2}
    f = gen(U1)
    assert apply_evolutionary(m, q, f) == total_derivative(gen(U) ** 2, 1)
    g = gen(U) * gen(U1)
    lhs = apply_evolutionary(m, q, g)
    rhs = gen(U) ** 2 * gen(U1) + gen(U) * total_derivative(gen(U) ** 2, 1)
    assert lhs == rhs


def test_apply_evolutionary_commutes_with_total_derivative():
    rng = random.Random(3005)
    m = ModelSpec(spatial_dim=2, fields=("1", "2"), gauge_indices=(),
                  lagrangian=LocalFunction.zero())
    q = {"1": random_field_function(rng, terms=2), "2": random_field_function(rng, terms=2)}
    for _ in range(25):
        f = random_field_function(rng)
        i = rng.choice((1, 2))
        lhs = apply_evolutionary(m, q, total_derivative(f, i))
        rhs = total_derivative(apply_evolutionary(m, q, f), i)
        assert lhs == rhs


# ---------------------------------------------------------------- commutators

def test_gauge_commutator_abelian_shift_is_trivial():
    m = ModelSpec(
        spatial_dim=1,
        fields=("1",),
        gauge_indices=("e", "f"),
        lagrangian=LocalFunction.zero(),
        gauge_coefficients={
            ("1", "e", (1,)): LocalFunction.one(),
            ("1", "f", (1,)): LocalFunction.one(),
        },
        max_jet_order=2,
        max_poly_degree=2,
    )
    report = gauge_commutator(m, "e", "f")
    assert all(v.is_zero for v in report.commutator.values())
    assert all(v.is_zero for v in report.c.values())
    assert all(v.is_zero for v in report.nu.values())
    assert report.explained


def test_gauge_commutator_recovers_rotation_structure_constants():
    m = so3_model()

    # independent oracle: commute the representation matrices directly;
    # the vector fields u -> Mu bracket opposite to the matrices
    def matrix(alpha):
        return [[Fraction(EPS.get((b + 1, alpha, a + 1), 0)) for b in range(3)]
                for a in range(3)]

    for alpha, beta in [(1, 2), (2, 3), (1, 3)]:
        report = gauge_commutator(m, str(alpha), str(beta))
        ma, mb = matrix(alpha), matrix(beta)
        comm = [[sum(mb[i][k] * ma[k][j] - ma[i][k] * mb[k][j] for k in range(3))
                 for j in range(3)] for i in range(3)]
        for a in range(3):
            expected = LocalFunction.zero()
            for b in range(3):
                expected = expected + comm[a][b] * gen(field(str(b + 1)))
            assert report.commutator[str(a + 1)] == expected
        for gamma in (1, 2, 3):
            expected_c = LocalFunction.constant(EPS.get((alpha, beta, gamma), 0))
            assert report.c[str(gamma)] == expected_c
        assert all(v.is_zero for v in report.nu.values())
        assert report.explained


def test_gauge_commutator_detects_on_shell_closure():
    # two shift-like symmetries whose commutator is proportional to an
    # equation of motion rather than to any gauge generator
    m = replace(open_algebra_model(), max_poly_degree=2)
    assert check_noether(m).all_pass
    report = gauge_commutator(m, "1", "2")
    assert report.commutator == {
        "1": LocalFunction.zero(),
        "2": gen(field("3")),
        "3": LocalFunction.zero(),
    }
    assert all(v.is_zero for v in report.c.values())
    assert report.nu[("2", "3")] == LocalFunction.one()
    assert report.nu[("1", "2")].is_zero
    assert report.nu[("1", "3")].is_zero
    assert report.explained


def test_gauge_commutator_is_deterministic():
    m = so3_model()
    r1 = gauge_commutator(m, "1", "2")
    r2 = gauge_commutator(m, "1", "2")
    assert r1.c == r2.c
    assert r1.nu == r2.nu
    assert r1.solution_dim == r2.solution_dim


# ---------------------------------------------------------------- ansatz helpers

def test_all_multi_indices_are_sorted_and_complete():
    idx = all_multi_indices(2, 2)
    assert idx == [(), (1,), (2,), (1, 1), (1, 2), (2, 2)]
    assert all_multi_indices(0, 3) == [()]


def test_enumerate_basis_monomials_skips_odd_squares():
    pool = [ghost("g"), field("1")]
    basis = enumerate_basis_monomials(pool, 2)
    u, c = gen(field("1")), gen(ghost("g"))
    assert basis == [LocalFunction.one(), u, c, u * u, u * c]


def test_enumeration_matches_the_depth_first_oracle_on_every_fixture():
    checked = nonempty = 0
    for path in sorted(FIXTURES.glob("*.bv")):
        spec = parse_document(path.read_text(encoding="utf-8")).spec
        for jet in range(3):
            for deg in range(6):
                m = replace(spec, max_jet_order=jet, max_poly_degree=deg)
                pool = master._correction_pool(m)
                for k in (1, 2, 3):
                    if master.lift_candidate_count(m, k) > master.MAX_LIFT_CANDIDATES:
                        continue
                    basis = enumerate_basis_monomials(pool, deg, bidegree=(k, k))
                    assert basis == old_enumerate_basis_monomials(pool, deg, (k, k)), (path.stem, jet, deg, k)
                    checked += 1
                    nonempty += bool(basis)
    assert checked >= 500 and nonempty >= 100, (checked, nonempty)


def random_pool_generator(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return base(rng.randint(1, 2))
    make = (field, antifield, ghost, antighost)[kind - 1]
    return make(rng.choice("12"), rng.choice([(), (1,), (2,), (1, 2)]))


def test_enumeration_matches_the_depth_first_oracle_on_random_pools():
    rng = random.Random(20261019)
    seen = {"all": 0, "target": 0, "unreachable": 0}
    for _ in range(300):
        pool = [random_pool_generator(rng) for _ in range(rng.randint(0, 7))]
        pool += rng.choices(pool, k=rng.randint(0, 3)) if pool else []
        rng.shuffle(pool)
        deg = rng.randint(0, 4)
        basis = enumerate_basis_monomials(pool, deg)
        assert basis == old_enumerate_basis_monomials(pool, deg), (pool, deg)
        seen["all"] += bool(basis)
        for _ in range(3):
            target = (rng.randint(-1, 3), rng.randint(-1, 5))
            basis = enumerate_basis_monomials(pool, deg, bidegree=target)
            assert basis == old_enumerate_basis_monomials(pool, deg, target), (pool, deg, target)
            seen["target" if basis else "unreachable"] += 1
    assert min(seen.values()) >= 100, seen
