"""Antibracket pairings, grading laws, Laplacian signs, and harnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bvforge.algebra import (
    Generator,
    GeneratorKind,
    LocalFunction,
    antifield,
    antighost,
    field,
    gen,
    ghost,
    graded_partial,
)
from bvforge.bracket import (
    JetModelRequiresVariationalBracket,
    JetModelUnsupported,
    antibracket,
    bv_laplacian,
    family_pairs,
)
from bvforge.jet import families, total_derivative

from harnesses import HarnessReport, bv_identity_harness, gerstenhaber_harness

U, US = field("1"), antifield("1")
V, VS = field("2"), antifield("2")
C, CS = ghost("1"), antighost("1")

POINT_POOL = (U, US, V, VS, C, CS)


def random_monomial_lf(rng, pool=POINT_POOL, max_len=4):
    k = rng.randint(0, max_len)
    flat = [rng.choice(pool) for _ in range(k)]
    coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return LocalFunction.from_terms([(tuple((g, 1) for g in flat), coeff)])


# ---------------------------------------------------------------- pairings

def test_generator_pairings():
    assert antibracket(gen(U), gen(US), 0) == LocalFunction.one()
    assert antibracket(gen(US), gen(U), 0) == -LocalFunction.one()
    assert antibracket(gen(C), gen(CS), 0) == LocalFunction.one()
    assert antibracket(gen(CS), gen(C), 0) == -LocalFunction.one()


def test_cross_family_pairings_vanish():
    assert antibracket(gen(U), gen(VS), 0).is_zero
    assert antibracket(gen(U), gen(CS), 0).is_zero
    assert antibracket(gen(C), gen(US), 0).is_zero
    assert antibracket(gen(U), gen(V), 0).is_zero
    assert antibracket(gen(US), gen(VS), 0).is_zero


def test_bracket_is_bilinear():
    rng = random.Random(501)
    for _ in range(30):
        f = random_monomial_lf(rng)
        g = random_monomial_lf(rng)
        h = random_monomial_lf(rng)
        lhs = antibracket(2 * f + g, h, 0)
        rhs = 2 * antibracket(f, h, 0) + antibracket(g, h, 0)
        assert lhs == rhs


def test_bracket_raises_ghost_number_by_one():
    rng = random.Random(502)
    found = 0
    for _ in range(200):
        f = random_monomial_lf(rng)
        g = random_monomial_lf(rng)
        if f.is_zero or g.is_zero:
            continue
        out = antibracket(f, g, 0)
        if out.is_zero:
            continue
        found += 1
        assert out.ghost_number() == f.ghost_number() + g.ghost_number() + 1
    assert found > 30


def test_pointwise_bracket_rejects_jets():
    with pytest.raises(JetModelRequiresVariationalBracket):
        antibracket(gen(field("1", (1,))), gen(US), 0)
    with pytest.raises(JetModelRequiresVariationalBracket):
        antibracket(gen(US), gen(field("1", (1,))), 0)


def test_graded_antisymmetry_exact():
    rng = random.Random(503)
    for _ in range(80):
        f = random_monomial_lf(rng)
        g = random_monomial_lf(rng)
        if f.is_zero or g.is_zero:
            continue
        sign = -1 if ((f.parity() + 1) * (g.parity() + 1)) % 2 else 1
        assert antibracket(f, g, 0) == sign * -antibracket(g, f, 0)


def test_graded_jacobi_exact():
    rng = random.Random(504)
    for _ in range(60):
        f = random_monomial_lf(rng, max_len=3)
        g = random_monomial_lf(rng, max_len=3)
        h = random_monomial_lf(rng, max_len=3)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        sign = -1 if ((f.parity() + 1) * (g.parity() + 1)) % 2 else 1
        lhs = antibracket(f, antibracket(g, h, 0), 0)
        rhs = antibracket(antibracket(f, g, 0), h, 0) \
            + sign * antibracket(g, antibracket(f, h, 0), 0)
        assert lhs == rhs


def test_bracket_is_a_derivation_of_the_product():
    rng = random.Random(505)
    for _ in range(60):
        f = random_monomial_lf(rng, max_len=3)
        g = random_monomial_lf(rng, max_len=3)
        h = random_monomial_lf(rng, max_len=3)
        if f.is_zero or g.is_zero:
            continue
        sign = -1 if ((f.parity() + 1) * g.parity()) % 2 else 1
        lhs = antibracket(f, g * h, 0)
        rhs = antibracket(f, g, 0) * h + sign * (g * antibracket(f, h, 0))
        assert lhs == rhs


# ---------------------------------------------------------------- variational

def test_variational_bracket_on_derivative_coupling():
    S = gen(antifield("1")) * gen(ghost("1", (1,)))
    assert antibracket(S, S, 1).is_zero


def test_variational_bracket_reproduces_integration_by_parts():
    f = gen(antifield("1", (1,))) * gen(ghost("1"))
    out = antibracket(f, gen(U), 1)
    assert out == -gen(ghost("1", (1,)))
    assert out == -total_derivative(gen(ghost("1")), 1)
    # even arguments of this shape enter symmetrically
    assert antibracket(gen(U), f, 1) == out


def test_variational_bracket_field_only_arguments_vanish():
    f = gen(U) * gen(field("1", (1,)))
    g = gen(field("2", (1, 1))) ** 2
    assert antibracket(f, g, 1).is_zero


def test_variational_equals_pointwise_without_jets():
    rng = random.Random(506)
    for _ in range(60):
        f = random_monomial_lf(rng)
        g = random_monomial_lf(rng)
        for d in (1, 2):
            assert antibracket(f, g, 0) == antibracket(f, g, d), (f, g, d)
    assert antibracket(gen(U), gen(US), 0) == LocalFunction.one()
    assert antibracket(gen(U), gen(US), 2) == LocalFunction.one()


def test_variational_bracket_annihilates_divergences():
    rng = random.Random(507)
    jet_pool = (
        field("1"), field("1", (1,)), antifield("1"), antifield("1", (1,)),
        ghost("1"), ghost("1", (1,)),
    )
    for _ in range(30):
        j = random_monomial_lf(rng, pool=jet_pool, max_len=3)
        g = random_monomial_lf(rng, pool=jet_pool, max_len=3)
        div = total_derivative(j, 1)
        assert antibracket(div, g, 1).is_zero
        assert antibracket(g, div, 1).is_zero


# ---------------------------------------------------------------- Laplacian

def test_laplacian_on_first_order_elements():
    for g in POINT_POOL:
        assert bv_laplacian(gen(g)).is_zero


def test_laplacian_sign_regressions():
    # frozen convention: the field pair gives +1, the ghost pair -1
    assert bv_laplacian(gen(U) * gen(US)) == LocalFunction.one()
    assert bv_laplacian(gen(C) * gen(CS)) == -LocalFunction.one()


def test_laplacian_is_nilpotent():
    rng = random.Random(508)
    for _ in range(100):
        f = random_monomial_lf(rng) + random_monomial_lf(rng)
        assert bv_laplacian(bv_laplacian(f)).is_zero


def test_laplacian_rejects_jets():
    with pytest.raises(JetModelUnsupported):
        bv_laplacian(gen(field("1", (1,))))


def test_laplacian_raises_ghost_number_by_one():
    rng = random.Random(509)
    found = 0
    for _ in range(100):
        f = random_monomial_lf(rng)
        out = bv_laplacian(f)
        if f.is_zero or out.is_zero:
            continue
        found += 1
        assert out.ghost_number() == f.ghost_number() + 1
    assert found > 20


# ---------------------------------------------------------------- harnesses

def test_gerstenhaber_harness_passes():
    report = gerstenhaber_harness(samples=300)
    assert isinstance(report, HarnessReport)
    assert report.passed
    assert report.checks == 3 * 300


def test_gerstenhaber_harness_catches_sign_mutation():
    def mutant(f, g):
        out = LocalFunction.zero()
        for z, zs in [(U, US), (V, VS), (C, CS)]:
            out = out + graded_partial(f, z, "right") * graded_partial(g, zs, "left")
            out = out + graded_partial(f, zs, "right") * graded_partial(g, z, "left")
        return out

    report = gerstenhaber_harness(samples=300, bracket=mutant)
    assert not report.passed
    identities = {failure.identity for failure in report.failures}
    assert "jacobi" in identities
    sample = report.failures[0]
    assert sample.lhs != sample.rhs


def test_bv_identity_harness_passes():
    report = bv_identity_harness(samples=200)
    assert report.passed


def test_bv_identity_explicit_pairs():
    a, b = gen(U), gen(US)
    lhs = antibracket(a, b, 0)
    rhs = bv_laplacian(a * b) - bv_laplacian(a) * b - a * bv_laplacian(b)
    assert lhs == rhs == LocalFunction.one()
    # field-only pairs are silent on both sides
    a, b = gen(U), gen(V) * gen(V)
    assert antibracket(a, b, 0).is_zero
    assert bv_laplacian(a * b).is_zero


# ------------------------------------------------------- family walks

def old_families_in(fs):
    """The family walk ``master`` ran before ``jet.families``: the oracle."""
    seen: set[tuple[int, str]] = set()
    reps: dict[tuple[int, str], Generator] = {}
    for f in fs:
        for g in f.generators():
            if g.kind is GeneratorKind.BASE:
                continue
            key = (g.kind.rank, g.family)
            if key not in seen:
                seen.add(key)
                reps[key] = Generator(g.kind, g.family)
    return [reps[k] for k in sorted(reps)]


def old_family_pairs(*fs):
    """The pair walk ``family_pairs`` ran before ``jet.families``: the oracle."""
    seen: set[tuple[int, str]] = set()
    for f in fs:
        for g in f.generators():
            if g.kind is GeneratorKind.BASE:
                continue
            cls = 0 if g.kind in (GeneratorKind.FIELD, GeneratorKind.ANTIFIELD) else 1
            seen.add((cls, g.family))
    pairs = []
    for cls, fam in sorted(seen):
        if cls == 0:
            pairs.append((field(fam), antifield(fam)))
        else:
            pairs.append((ghost(fam), antighost(fam)))
    return pairs


def random_jet_function(rng):
    """A local function over all five generator kinds, prolonged up to order 2."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        flat = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(list(GeneratorKind))
            if kind is GeneratorKind.BASE:
                flat.append(Generator(kind, rng.choice("12")))
            else:
                jet = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))
                flat.append(Generator(kind, rng.choice(("1", "2", "a", "b10")), jet))
        coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        terms.append((tuple((g, 1) for g in flat), coeff))
    return LocalFunction.from_terms(terms)


def test_families_and_pairs_agree_with_the_old_walks():
    rng = random.Random(20261019)
    kinds_seen = set()
    for _ in range(200):
        fs = [random_jet_function(rng) for _ in range(rng.randint(1, 3))]
        reps = families(*fs)
        assert reps == old_families_in(fs)
        assert all(not z.jet for z in reps)
        assert family_pairs(*fs) == old_family_pairs(*fs)
        kinds_seen.update(g.kind for f in fs for g in f.generators() if g.jet)
    assert kinds_seen == set(GeneratorKind) - {GeneratorKind.BASE}
    assert families() == [] == family_pairs(LocalFunction.one())
