"""Core graded algebra: canonical forms, signs, derivatives, decomposition."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from harnesses import assert_ints_when_integral
from shared import GRADED_POOL, documented_factors_key, documented_key, random_local_function

from bvforge.algebra import (
    Bidegree,
    Generator,
    GeneratorKind,
    LocalFunction,
    add_terms,
    antifield,
    antighost,
    base,
    coerce_coefficient,
    decompose_by_antifield_number,
    field,
    gen,
    ghost,
    graded_partial,
    normalize,
    sum_of,
    term_bidegree,
)
from bvforge.linsolve import unknown


# ---------------------------------------------------------------- helpers

def naive_sorted_sign(flat):
    """Bubble sort a flat generator list, tracking the Koszul sign by
    explicit adjacent swaps.  Returns (sign, sorted_list) or (None, _)
    when an odd generator repeats."""
    seq = list(flat)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if documented_key(seq[i]) > documented_key(seq[i + 1]):
                if seq[i].is_odd and seq[i + 1].is_odd:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1] and seq[i].is_odd:
            return None, seq
    return sign, seq


def flat_factors(factors):
    out = []
    for g, e in factors:
        out.extend([g] * e)
    return out


def lf_from_flat(coeff, flat):
    return LocalFunction.from_terms([(tuple((g, 1) for g in flat), Fraction(coeff))])


def naive_partial(f: LocalFunction, z: Generator, side: str) -> LocalFunction:
    """Strip one occurrence of z from each monomial, summing over positions.

    For an odd z the sign is the parity of the factors the derivative
    jumps over: the prefix for the left derivative, the suffix for the
    right one."""
    out = LocalFunction.zero()
    for factors, c in f.sorted_terms():
        flat = flat_factors(factors)
        for pos, g in enumerate(flat):
            if g != z:
                continue
            rest = flat[:pos] + flat[pos + 1:]
            if z.is_odd:
                jumped = flat[:pos] if side == "left" else flat[pos + 1:]
                s = (-1) ** sum(h.parity for h in jumped)
            else:
                s = 1
            out = out + lf_from_flat(c * s, rest)
    return out


# ---------------------------------------------------------------- generators

def test_jet_indices_are_sorted_on_construction():
    assert field("1", (2, 1)) == field("1", (1, 2))
    assert field("1", (3, 1, 2)).jet == (1, 2, 3)


def test_generator_validation():
    field("1", (1,))  # a generator already made lets no bad twin through
    for make, message in (
            (lambda: Generator(GeneratorKind.BASE, "1", (1,)), "base coordinates carry no jet index"),
            (lambda: field("1", (0,)), "jet indices must be integers >= 1"),
            (lambda: field("1", (1, "2")), "jet indices must be integers >= 1"),
            (lambda: field("1", ([1],)), "jet indices must be integers >= 1"),
            (lambda: Generator(GeneratorKind.FIELD, ""), "generator family must be a nonempty string"),
            (lambda: Generator(GeneratorKind.FIELD, 1), "generator family must be a nonempty string"),
            (lambda: Generator(GeneratorKind.FIELD, ["1"]), "generator family must be a nonempty string")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


def test_each_generator_is_made_once():
    assert field("1", (2, 1)) is field("1", (1, 2))
    assert Generator(GeneratorKind.FIELD, "1", [2, 1]) is field("1", (1, 2))
    assert Generator(kind=GeneratorKind.GHOST, family="a") is ghost("a", ())
    for g in (base(2), field("1", (1, 2)), antifield("a", (1,)), ghost("10"), antighost("b", (2,))):
        assert Generator(g.kind, g.family, g.jet) is g
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        if g.kind is not GeneratorKind.BASE:
            assert g.conjugate().conjugate() is g
    assert field("1") != antifield("1") and field("1") != "u[1]"
    # a shared generator cannot change
    g = field("1", (1,))
    with pytest.raises(AttributeError):
        g.jet = (2,)
    with pytest.raises(AttributeError):
        g.color = "red"
    with pytest.raises(AttributeError):
        del g.family
    assert (g.kind, g.family, g.jet) == (GeneratorKind.FIELD, "1", (1,))


def test_prolongation_links_are_the_shared_generators():
    for g in (field("1"), field("1", (2, 1)), antifield("a", (1,)), ghost("10"),
              antighost("b", (2,))):
        assert g.unprolonged is Generator(g.kind, g.family)
        assert g.unprolonged.unprolonged is g.unprolonged
        for i in (1, 2, 3):
            h = g.prolonged(i)
            assert h is g.prolonged(i) is Generator(g.kind, g.family, g.jet + (i,))
            assert h.unprolonged is g.unprolonged and h.jet == tuple(sorted(g.jet + (i,)))
    assert base(1).unprolonged is base(1)
    assert ghost("a", (2,)).prolonged(1) is ghost("a", (1,)).prolonged(2) is ghost("a", (1, 2))
    for bad in (0, -1, "1"):
        with pytest.raises(ValueError, match="jet indices must be integers >= 1"):
            field("1").prolonged(bad)
    with pytest.raises(ValueError, match="base coordinates carry no jet index"):
        base(1).prolonged(1)
    with pytest.raises(AttributeError):
        field("1").unprolonged = field("2")


# generators as source text, each with its tuple value and its hash on a 64-bit build
PINNED_GENERATORS = {
    "base(1)": ((0, 49, -1, 0), 7233219183385037654),
    "field('1')": ((1, 49, -1, 0), -3839560304298816466),
    "field('1', (2, 1))": ((1, 49, -1, 2, 1, 2), -7459522512293217889),
    "antifield('a', (1,))": ((2, 97, -1, 1, 1), 8954861087180207366),
    "ghost('10')": ((3, 49, 48, -1, 0), 3767968006371252001),
    "antighost('b10', (1, 1, 2))": ((4, 98, 49, 48, -1, 3, 1, 1, 2), 3841624114538667544),
}


def test_generator_repr_and_hash_are_pinned():
    assert repr(field("1", (2, 1))) == "Generator(kind=<GeneratorKind.FIELD: 'u'>, family='1', jet=(1, 2))"
    assert repr(base(3)) == "Generator(kind=<GeneratorKind.BASE: 'x'>, family='3', jet=())"
    # the value is (kind rank, code points of family, -1, len(jet), *jet), all ints,
    # so no PYTHONHASHSEED moves the hash
    names = {"base": base, "field": field, "antifield": antifield, "ghost": ghost,
             "antighost": antighost}
    hashes = []
    for text, (value, pinned) in PINNED_GENERATORS.items():
        g = eval(text, names)
        assert tuple(g) == value and hash(g) == hash(value)
        if sys.maxsize > 2 ** 32:  # the values of a 64-bit build
            assert hash(g) == pinned
        hashes.append(str(hash(g)))
    script = ("from bvforge.algebra import base, field, antifield, ghost, antighost\n"
              f"print(*(hash(g) for g in ({', '.join(PINNED_GENERATORS)})))")
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == hashes


def test_generators_hash_in_c_and_equal_only_themselves():
    # a generator is the tuple of its place in the term order, so tuple's own
    # hash, equality and order run without a Python frame; each is made once
    # and its value fixes its symbol, so it equals no other generator
    g = field("1", (2, 1))
    assert isinstance(g, tuple) and tuple(g) == (1, ord("1"), -1, 2, 1, 2)
    gens = [base(1), base(2), unknown(0), unknown(12), g, field("1"), antifield("a", (1,)),
            ghost("10"), antighost("b10", (1, 1, 2))]
    for h in gens:
        assert hash(h) == hash(tuple(h))
        assert h == h and not h != h
    for a, b in itertools.product(gens, repeat=2):
        assert (a == b) is (a is b)
        assert ((a < b), (a <= b), (a > b), (a >= b)) == (
            documented_key(a) < documented_key(b), documented_key(a) <= documented_key(b),
            documented_key(a) > documented_key(b), documented_key(a) >= documented_key(b))
    factors = tuple((h, 1) for h in sorted(gens) if not h.is_odd) + ((ghost("10"), 1),)
    x1, x2, a0, a12 = gens[:4]
    frames = []
    sys.setprofile(lambda frame, event, arg: frames.append(frame.f_code.co_name)
                   if event == "call" else None)
    try:
        hash(factors)
        table = {factors: 1, factors[1:]: 2}
        assert table[tuple(list(factors))] == 1 and tuple(list(factors[1:])) in table
        assert sorted(factors)[0][0] is a0 and sorted(gens)[-1] is gens[-1]
        assert a0 < a12 < x1 < x2 < g and not g < x1
    finally:
        sys.setprofile(None)
    assert frames == []


def test_bidegrees_and_parities():
    assert base(1).bidegree == Bidegree(0, 0)
    assert field("a").bidegree == Bidegree(0, 0)
    assert antifield("a").bidegree == Bidegree(0, 1)
    assert ghost("g").bidegree == Bidegree(1, 0)
    assert antighost("g").bidegree == Bidegree(0, 2)

    assert field("a").parity == 0
    assert antifield("a").parity == 1
    assert ghost("g").parity == 1
    assert antighost("g").parity == 0

    assert antifield("a").ghost_number == -1
    assert ghost("g").ghost_number == 1
    assert antighost("g").ghost_number == -2

    assert antifield("a").antifield_number == 1
    assert antighost("g").antifield_number == 2


def test_conjugation_is_an_involution():
    for g in [field("a", (1,)), antifield("a"), ghost("g", (2, 2)), antighost("g")]:
        assert g.conjugate().conjugate() == g
        assert g.conjugate().family == g.family
        assert g.conjugate().jet == g.jet
        assert g.ghost_number + g.conjugate().ghost_number == -1
    with pytest.raises(ValueError):
        base(1).conjugate()


def test_generator_total_order_groups_by_kind_then_family_then_jet():
    u = field("1")
    u1 = field("1", (1,))
    u11 = field("1", (1, 1))
    u2 = field("1", (2,))
    assert sorted([u11, u2, u, u1]) == [u, u1, u2, u11]
    assert base(1) < field("0")
    assert field("zz") < antifield("0")
    assert antifield("zz") < ghost("0")
    assert ghost("zz") < antighost("0")


# ---------------------------------------------------------------- normalize

def test_normalize_sorts_and_signs():
    C1, C2 = ghost("1"), ghost("2")
    assert normalize((((C2, 1), (C1, 1)), Fraction(1))) == (((C1, 1), (C2, 1)), -1)


def test_odd_repeats_vanish():
    C = ghost("1")
    us = antifield("1")
    assert normalize((((C, 1), (C, 1)), Fraction(1)))[1] == 0
    assert normalize((((C, 2),), Fraction(1)))[1] == 0
    assert normalize((((us, 1), (us, 1)), Fraction(1)))[1] == 0
    # antighosts are even and may repeat
    cs = antighost("1")
    assert normalize((((cs, 1), (cs, 1)), Fraction(1))) == (((cs, 2),), 1)


def test_normalize_merges_even_powers():
    u = field("1")
    assert normalize((((u, 2), (u, 1)), Fraction(3))) == (((u, 3),), 3)


def test_normalize_agrees_with_naive_sign_oracle():
    rng = random.Random(20260816)
    for _ in range(300):
        k = rng.randint(0, 6)
        flat = [rng.choice(GRADED_POOL) for _ in range(k)]
        factors, c = normalize((tuple((g, 1) for g in flat), Fraction(1)))
        sign, srt = naive_sorted_sign(flat)
        if sign is None:
            assert c == 0
        else:
            assert c == sign
            assert flat_factors(factors) == srt


# families that str orders differently from their numbers or their bytes, on every
# kind, at jet lengths 0 to 2, beside the unknowns #0 to #12 and three directions
ORDER_POOL = [unknown(j) for j in range(13)] + [base(1), base(2), base(10)] + [
    make(family, jet) for make in (field, antifield, ghost, antighost)
    for family in ("1", "10", "2", "a", "a1", "\u03c8") for jet in ((), (1,), (2,), (1, 1), (1, 2))]


def test_the_tuple_order_is_the_documented_term_order():
    assert sorted(ORDER_POOL) == sorted(ORDER_POOL, key=documented_key)
    for a, b in itertools.product(ORDER_POOL, repeat=2):
        assert (a == b) is (a is b)
        assert (a < b) == (documented_key(a) < documented_key(b))
    rng = random.Random(30)
    for _ in range(300):
        gens = rng.sample(ORDER_POOL, rng.randint(0, 12))
        assert sorted(gens) == sorted(gens, key=documented_key)
        flat = [rng.choice(gens or ORDER_POOL) for _ in range(rng.randint(0, 6))]
        factors, c = normalize((tuple((g, 1) for g in flat), 1))
        sign, srt = naive_sorted_sign(flat)
        if sign is None:
            assert (factors, c) == ((), 0)
        else:
            assert c == sign and flat_factors(factors) == srt
        f = LocalFunction.from_terms(
            (tuple((rng.choice(gens or ORDER_POOL), 1) for _ in range(rng.randint(0, 4))), 1)
            for _ in range(rng.randint(0, 8)))
        keys = [fac for fac, _ in f.sorted_terms()]
        assert keys == sorted(keys, key=documented_factors_key) and len(keys) == len(f.terms())


# ---------------------------------------------------------------- arithmetic

def test_sum_of_products_with_odd_cross_terms():
    u = gen(field("1"))
    C = gen(ghost("1"))
    # cross terms cancel and the ghost square vanishes
    assert (u + C) * (u - C) == u * u


def test_graded_commutativity_of_generators():
    C1, C2 = ghost("1"), ghost("2")
    assert gen(C1) * gen(C2) == -(gen(C2) * gen(C1))
    u = field("1")
    assert gen(u) * gen(C1) == gen(C1) * gen(u)
    cs1, cs2 = antighost("1"), antighost("2")
    assert gen(cs1) * gen(cs2) == gen(cs2) * gen(cs1)


def test_product_with_scalars_and_zero():
    u = gen(field("1"))
    assert 2 * u == u + u
    assert u * Fraction(1, 2) + u * Fraction(1, 2) == u
    assert 0 * u == LocalFunction.zero()
    assert u - u == LocalFunction.zero()
    assert not (u - u)
    assert (u - u).is_zero


def test_power_operator():
    u = gen(field("1"))
    C = gen(ghost("1"))
    assert u ** 3 == u * u * u
    assert C ** 2 == LocalFunction.zero()
    assert u ** 0 == LocalFunction.one()
    with pytest.raises(ValueError):
        u ** -1


def test_associativity_randomised():
    rng = random.Random(411)
    for _ in range(40):
        f = random_local_function(rng)
        g = random_local_function(rng)
        h = random_local_function(rng)
        assert (f * g) * h == f * (g * h)


def test_graded_commutativity_randomised_on_homogeneous_parts():
    rng = random.Random(412)
    for _ in range(60):
        f = random_local_function(rng, terms=1)
        g = random_local_function(rng, terms=1)
        pf, pg = f.parity(), g.parity()
        if f.is_zero or g.is_zero:
            continue
        sign = -1 if (pf and pg) else 1
        assert f * g == sign * (g * f)


def test_distributivity_randomised():
    rng = random.Random(413)
    for _ in range(40):
        f = random_local_function(rng)
        g = random_local_function(rng)
        h = random_local_function(rng)
        assert f * (g + h) == f * g + f * h


# ---------------------------------------------------------------- derivatives

def test_left_partial_basic_sign():
    C1, C2 = ghost("1"), ghost("2")
    f = gen(C1) * gen(C2)
    assert graded_partial(f, C2, "left") == -gen(C1)
    assert graded_partial(f, C1, "left") == gen(C2)


def test_right_partial_basic_sign():
    C1, C2 = ghost("1"), ghost("2")
    f = gen(C1) * gen(C2)
    assert graded_partial(f, C2, "right") == gen(C1)
    assert graded_partial(f, C1, "right") == -gen(C2)


def test_partial_of_even_power():
    u = field("1")
    f = gen(u) ** 3
    assert graded_partial(f, u, "left") == 3 * gen(u) ** 2
    assert graded_partial(f, u, "right") == 3 * gen(u) ** 2


def test_partial_missing_generator_is_zero():
    f = gen(field("1"))
    assert graded_partial(f, field("2"), "left").is_zero
    assert graded_partial(f, field("1", (1,)), "left").is_zero


def test_partials_match_position_stripping_oracle():
    rng = random.Random(77)
    for _ in range(120):
        f = random_local_function(rng, terms=2, max_len=5)
        z = rng.choice(GRADED_POOL)
        assert graded_partial(f, z, "left") == naive_partial(f, z, "left")
        assert graded_partial(f, z, "right") == naive_partial(f, z, "right")


def test_left_leibniz_rule_randomised():
    rng = random.Random(78)
    for _ in range(80):
        f = random_local_function(rng, terms=1, max_len=4)
        g = random_local_function(rng, terms=1, max_len=4)
        if f.is_zero or g.is_zero:
            continue
        z = rng.choice(GRADED_POOL)
        lhs = graded_partial(f * g, z, "left")
        sign = -1 if (z.parity and f.parity()) else 1
        rhs = graded_partial(f, z, "left") * g + sign * (f * graded_partial(g, z, "left"))
        assert lhs == rhs


def test_right_leibniz_rule_randomised():
    rng = random.Random(79)
    for _ in range(80):
        f = random_local_function(rng, terms=1, max_len=4)
        g = random_local_function(rng, terms=1, max_len=4)
        if f.is_zero or g.is_zero:
            continue
        z = rng.choice(GRADED_POOL)
        lhs = graded_partial(f * g, z, "right")
        sign = -1 if (z.parity and g.parity()) else 1
        rhs = f * graded_partial(g, z, "right") + sign * (graded_partial(f, z, "right") * g)
        assert lhs == rhs


def test_mixed_second_partials_anticommute_for_odd_generators():
    rng = random.Random(80)
    C1, C2 = ghost("1"), ghost("2")
    for _ in range(40):
        f = random_local_function(rng, terms=3, max_len=5)
        d12 = graded_partial(graded_partial(f, C1, "left"), C2, "left")
        d21 = graded_partial(graded_partial(f, C2, "left"), C1, "left")
        assert d12 == -d21


# ---------------------------------------------------------------- decomposition

def test_decompose_by_antifield_number_single_stratum():
    f = gen(antighost("1")) * gen(ghost("1")) * gen(ghost("2"))
    parts = decompose_by_antifield_number(f)
    assert set(parts) == {2}
    assert parts[2] == f
    assert f.bidegree() == Bidegree(2, 2)


def test_decompose_by_antifield_number_splits_and_reassembles():
    rng = random.Random(90)
    for _ in range(30):
        f = random_local_function(rng, terms=5, max_len=4)
        parts = decompose_by_antifield_number(f)
        assert list(parts) == sorted(parts)
        total = LocalFunction.zero()
        for k, part in parts.items():
            assert not part.is_zero
            assert {term_bidegree(f).antighost for f, _ in part.terms()} == {k}
            total = total + part
        assert total == f


def test_antifield_number_strata():
    us = gen(antifield("1"))
    cs = gen(antighost("1"))
    u = gen(field("1"))
    f = u + us * gen(ghost("1")) + cs
    strata = decompose_by_antifield_number(f)
    assert set(strata) == {0, 1, 2}
    assert strata[0] == u
    assert strata[2] == cs


# ---------------------------------------------------------------- expansion

def test_even_binomial_square_has_exact_coefficients():
    x = base(1)
    u = field("1")
    for a, b in [(1, 1), (1, 2), (Fraction(1, 3), Fraction(-2, 5))]:
        f = (a * gen(x) + b * gen(u)) ** 2
        assert dict(f.terms()) == {
            ((x, 2),): Fraction(a) ** 2,
            ((x, 1), (u, 1)): 2 * Fraction(a) * b,
            ((u, 2),): Fraction(b) ** 2,
        }


# ---------------------------------------------------------------- housekeeping

def test_equality_and_hash_are_structural():
    f = gen(field("1")) * gen(ghost("1"))
    g = gen(ghost("1")) * gen(field("1"))
    assert f == g
    assert hash(f) == hash(g)
    assert f != f + LocalFunction.one()


def test_monomial_iteration_is_deterministic():
    rng = random.Random(91)
    f = random_local_function(rng, terms=6, max_len=4)
    first = f.sorted_terms()
    again = LocalFunction.from_terms(first[::-1]).sorted_terms()
    assert first == again


def test_coefficient_lookup():
    u = field("1")
    f = 3 * gen(u) ** 2 + LocalFunction.constant(Fraction(5, 7))
    assert f.coefficient(((u, 2),)) == 3
    assert f.constant_term() == Fraction(5, 7)
    assert f.coefficient(((u, 1),)) == 0


def test_absent_terms_read_as_the_int_zero():
    u = field("1")
    for f in (LocalFunction.zero(), gen(u), 3 * gen(u) ** 2, gen(u) * Fraction(1, 2)):
        for factors in ((), ((u, 3),), ((ghost("1"), 1),)):
            assert type(f.coefficient(factors)) is int and f.coefficient(factors) == 0
        assert type(f.constant_term()) is int and f.constant_term() == 0
    assert type((gen(u) * 4).coefficient(((u, 1),))) is int
    assert type(LocalFunction.constant(Fraction(1, 2)).constant_term()) is Fraction


def test_homogeneity_queries():
    u = gen(field("1"))
    C = gen(ghost("1"))
    assert (u * u).bidegree() == Bidegree(0, 0)
    assert (u + C).bidegree() is None
    assert (u + C).parity() is None
    assert C.ghost_number() == 1
    assert LocalFunction.zero().bidegree() is None
    assert (u * C).parity() == 1


def test_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        LocalFunction.constant(0.5)
    with pytest.raises(TypeError):
        gen(field("1")) * 0.5


# ------------------------------------------------------------ sparse sums

def old_two_term_add(a: LocalFunction, b: LocalFunction) -> LocalFunction:
    """The accumulation loop ``__add__`` ran before ``sum_of``: the oracle."""
    data = dict(a.terms())
    for factors, coeff in b.terms():
        acc = data.get(factors, Fraction(0)) + coeff
        if acc:
            data[factors] = acc
        else:
            data.pop(factors, None)
    return LocalFunction(data, _internal=True)


def test_add_terms_keeps_exactly_the_nonzero_sums():
    data = add_terms({}, [("a", Fraction(1)), ("b", Fraction(0)), ("c", Fraction(2)),
                          ("a", Fraction(-1)), ("c", Fraction(1, 2)), ("d", Fraction(-3))])
    assert data == {"c": Fraction(5, 2), "d": Fraction(-3)}
    assert add_terms(data, [("d", Fraction(3)), ("c", Fraction(-5, 2))]) is data
    assert data == {}


def test_sum_of_agrees_with_a_fold_of_the_two_term_add():
    rng = random.Random(20261018)
    cancelled = 0
    for trial in range(300):
        fs = [random_local_function(rng, terms=rng.randint(0, 4)) for _ in range(rng.randint(0, 5))]
        # feed back negated and rescaled copies so that terms cancel, wholly or in part
        for _ in range(rng.randint(0, 3)):
            if fs:
                fs.insert(rng.randint(0, len(fs)), rng.choice([-1, -1, 2]) * rng.choice(fs))
        expected = LocalFunction.zero()
        for f in fs:
            expected = old_two_term_add(expected, f)
        total = sum_of(fs)
        assert total == expected
        assert all(c != 0 for _, c in total.terms())
        assert sum_of(iter(fs)) == expected
        if fs:
            assert fs[0] + LocalFunction.zero() == fs[0]
            assert sum(fs[1:], fs[0]) == expected
        cancelled += sum(len(f.terms()) for f in fs) > len(total.terms())
    assert cancelled > 100
    assert sum_of([]) == LocalFunction.zero()


# ---------------------------------------------------------------- coefficients

def test_coerce_coefficient_keeps_integral_values_as_ints():
    for value, expected in ((True, 1), (False, 0), (7, 7), (Fraction(4, 2), 2), (Fraction(-3), -3)):
        c = coerce_coefficient(value)
        assert type(c) is int and c == expected, value
    assert type(coerce_coefficient(Fraction(-2, 4))) is Fraction
    assert coerce_coefficient(Fraction(-2, 4)) == Fraction(-1, 2)
    for bad in (0.5, 1.0, "1", "1/2", None):
        with pytest.raises(TypeError):
            coerce_coefficient(bad)
    assert type(LocalFunction.constant(True).constant_term()) is int
    assert type(LocalFunction({(): Fraction(6, 3)}).constant_term()) is int


def test_local_functions_store_ints_exactly_when_integral():
    # sums, products, scalar multiples and partials of random functions
    # whose coefficients include integral Fractions such as 4/2
    rng = random.Random(20261020)
    scalars = (2, -1, True, Fraction(1, 2), Fraction(4, 2), Fraction(-2, 3), Fraction(3, 3))
    seen = Counter()
    for _ in range(200):
        f, g = random_local_function(rng), random_local_function(rng)
        s = rng.choice(scalars)
        z = rng.choice(GRADED_POOL)
        results = [f, f + g, f - g, f * g, s * f, f * s, -f, f + f, 2 * f - f,
                   f * Fraction(1, 2) + f * Fraction(1, 2), f ** 2, sum_of((f, g, f)),
                   LocalFunction.constant(s), graded_partial(f * f + f * g, z, "left"),
                   graded_partial(f * g, z, "right"),
                   *decompose_by_antifield_number(f * g).values()]
        for h in results:
            seen += assert_ints_when_integral(c for _, c in h.terms())
    assert seen["int"] > 1000 and seen["Fraction"] > 1000, seen
    sums = add_terms({}, [("a", Fraction(1, 2)), ("a", Fraction(1, 2)), ("b", Fraction(6, 3))])
    assert sums == {"a": 1, "b": 2}
    assert assert_ints_when_integral(sums.values()) == {"int": 2}
