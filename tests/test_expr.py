"""Expression grammar: tokenizer, parser, and canonical printer."""

import random
from fractions import Fraction
from math import comb

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
from bvforge.expr import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_TERMS,
    MAX_TERM_PRODUCTS,
    ExpressionSyntaxError,
    SemanticError,
    format_local_function,
    parse_expression,
    tokenize,
)
from shared import random_local_function


# --------------------------------------------------------------- tokens

def test_tokenizer_reports_positions():
    tokens = tokenize("u[1]\n + 3/2")
    kinds = [t.kind for t in tokens]
    assert kinds == ["IDENT", "LBRACKET", "INT", "RBRACKET",
                     "PLUS", "INT", "SLASH", "INT", "EOF"]
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[4].line, tokens[4].column) == (2, 2)
    assert (tokens[5].line, tokens[5].column) == (2, 4)


def test_tokenizer_skips_comments():
    tokens = tokenize("3 # the rest is ignored\n+ 4")
    assert [t.text for t in tokens if t.kind != "EOF"] == ["3", "+", "4"]


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ExpressionSyntaxError) as err:
        tokenize("u[1] @ 2")
    assert err.value.line == 1
    assert err.value.column == 6


def test_integers_are_ascii_digits_only():
    # an Arabic-Indic three is not 3, and a superscript two is no integer
    for text, column in (("x[\u0663]", 3), ("u[1]^\u00b2", 6), ("3\u0663", 2)):
        with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
            tokenize(text)
        assert (err.value.line, err.value.column) == (1, column), text


# ---------------------------------------------------------------- atoms

def test_atoms_of_every_kind():
    assert parse_expression("x[2]") == gen(base(2))
    assert parse_expression("u[1]") == gen(field("1"))
    assert parse_expression("u[1; 1 1]") == gen(field("1", (1, 1)))
    assert parse_expression("ustar[2; 1]") == gen(antifield("2", (1,)))
    assert parse_expression("C[alpha]") == gen(ghost("alpha"))
    assert parse_expression("Cstar[e]") == gen(antighost("e"))


def test_jet_indices_normalize_to_sorted_order():
    assert parse_expression("u[1; 2 1]") == parse_expression("u[1; 1 2]")
    g = next(iter(parse_expression("u[1; 3 1 2]").generators()))
    assert g.jet == (1, 2, 3)


def test_a_parsed_atom_is_the_generator_the_helper_makes():
    for text, g in (("x[2]", base(2)), ("u[1; 2 1]", field("1", (1, 2))),
                    ("ustar[2; 1]", antifield("2", (1,))), ("C[alpha; 1 1]", ghost("alpha", (1, 1))),
                    ("Cstar[e]", antighost("e"))):
        (parsed,) = parse_expression(text).generators()
        assert parsed is g


def test_unknown_generator_name_is_semantic():
    with pytest.raises(SemanticError, match="unknown generator name 'v'"):
        parse_expression("v[1]")


def test_base_coordinates_take_no_jet():
    with pytest.raises(SemanticError, match="no jet index"):
        parse_expression("x[1; 2]")
    with pytest.raises(SemanticError, match="numbered from 1"):
        parse_expression("x[e]")


# ------------------------------------------------------------ rationals

def test_rational_literals():
    assert parse_expression("3/2") == LocalFunction.constant(Fraction(3, 2))
    assert parse_expression("4/2") == LocalFunction.constant(2)
    assert parse_expression("-5") == LocalFunction.constant(-5)


def test_zero_denominator_is_rejected():
    with pytest.raises(SemanticError, match="zero denominator"):
        parse_expression("1/0")


# ------------------------------------------------------------ operators

def test_precedence_and_grouping():
    u1, u2 = gen(field("1")), gen(field("2"))
    assert parse_expression("2*u[1] + 3*u[2]") == 2 * u1 + 3 * u2
    assert parse_expression("1/2*u[1]^2") == Fraction(1, 2) * u1 * u1
    assert parse_expression("(u[1] + u[2])^2") == (u1 + u2) ** 2
    assert parse_expression("u[1] - u[2] - u[1]") == -u2
    assert parse_expression("-u[1; 1 1]") == -gen(field("1", (1, 1)))


def test_power_zero_gives_one():
    assert parse_expression("u[1]^0") == LocalFunction.one()
    assert parse_expression("C[1]^0") == LocalFunction.one()


def test_odd_atom_powers_are_semantic_errors():
    with pytest.raises(SemanticError, match="cannot carry power 2"):
        parse_expression("C[1]^2")
    with pytest.raises(SemanticError, match="cannot carry power 3"):
        parse_expression("ustar[1]^3")
    # power one is fine, and squaring through parentheses just vanishes
    assert parse_expression("C[1]^1") == gen(ghost("1"))
    assert parse_expression("(C[1])^2").is_zero


def test_syntax_errors_carry_positions():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("u[1] + ")
    assert "end of input" in str(err.value)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("u[1")
    assert err.value.column == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("u[1] / 2")
    assert err.value.column == 6
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("u[1] u[2]")
    assert "expected end of input" in str(err.value)


def test_nesting_is_bounded_with_a_position():
    assert parse_expression("(" * MAX_NESTING + "u[1]" + ")" * MAX_NESTING) == gen(field("1"))
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("u[2] * " + "(" * 3000 + "u[1]" + ")" * 3000)
    assert (err.value.line, err.value.column) == (1, 8 + MAX_NESTING)
    assert "nested deeper" in str(err.value)


# ------------------------------------------------------------- printing

def test_zero_prints_as_zero():
    assert format_local_function(LocalFunction.zero()) == "0"
    assert parse_expression("0").is_zero


def test_frozen_canonical_forms():
    cases = [
        "1",
        "-3/2",
        "u[1]",
        "-u[1; 1 1]",
        "1/2*u[1; 1]^2",
        "2*x[1]*u[2]",
    ]
    for text in cases:
        assert format_local_function(parse_expression(text)) == text


def test_printer_suppresses_unit_coefficients_only():
    f = gen(field("1")) - gen(field("2"))
    assert format_local_function(f) == "u[1] - u[2]"
    g = -3 * gen(ghost("1")) * gen(ghost("2"))
    assert format_local_function(g) == "-3*C[1]*C[2]"


def test_printer_is_insensitive_to_construction_order():
    u1, u2 = gen(field("1")), gen(field("2"))
    assert format_local_function(u1 + u2) == format_local_function(u2 + u1)


def test_print_parse_round_trip_on_500_random_functions():
    rng = random.Random(20260816)
    for _ in range(500):
        f = random_local_function(rng, terms=rng.randint(0, 6))
        text = format_local_function(f)
        assert parse_expression(text) == f
        # canonical forms are fixed points of print(parse(.))
        assert format_local_function(parse_expression(text)) == text


def test_powers_are_bounded_before_expansion(monkeypatch):
    u1 = gen(field("1"))
    assert parse_expression(f"u[1]^{MAX_EXPONENT}") == u1 ** MAX_EXPONENT
    assert parse_expression("(u[1] - u[1])^5").is_zero

    def refuse(self, other):
        raise AssertionError("a refused power was expanded")

    monkeypatch.setattr(LocalFunction, "__mul__", refuse)
    with pytest.raises(SemanticError, match=f"exponent 100000000 exceeds {MAX_EXPONENT}") as err:
        parse_expression("2*u[1]^100000000")
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(SemanticError, match=f"exponent {MAX_EXPONENT + 1} exceeds") as err:
        parse_expression(f"(u[1])^{MAX_EXPONENT + 1}")
    # a trinomial to the power e has at most C(e + 2, 2) terms
    e = next(e for e in range(MAX_EXPONENT) if comb(e + 2, 2) > MAX_POWER_TERMS)
    with pytest.raises(SemanticError, match=f"3-term expression to the power {e} may expand"
                                            f" to {comb(e + 2, 2)} terms") as err:
        parse_expression(f"(u[1] + u[2] + u[3])^{e}")
    assert (err.value.line, err.value.column) == (1, 22)


def test_term_products_are_bounded_per_expression():
    # u[1]^100 takes 100 one-term products, so n of them summed take 100 n
    assert MAX_TERM_PRODUCTS % 100 == 0
    n = MAX_TERM_PRODUCTS // 100
    powers = " + ".join(["u[1]^100"] * n)
    assert parse_expression(powers) == n * gen(field("1")) ** 100
    with pytest.raises(SemanticError, match=f"more than {MAX_TERM_PRODUCTS} term products") as err:
        parse_expression(powers + " + u[1]^100")
    assert (err.value.line, err.value.column) == (1, len(powers) + 8)
    # a product of sums takes the product of their term counts, at its '*'
    head = " + ".join(["u[1]^100"] * (n - 1)) + " + "
    sums = ["(" + " + ".join(f"u[{i}]" for i in range(1, k + 1)) + ")" for k in (10, 11)]
    with pytest.raises(SemanticError, match="term products") as err:
        parse_expression(head + "*".join(sums), first_line=4)
    assert (err.value.line, err.value.column) == (4, len(head) + len(sums[0]) + 1)
    assert len(parse_expression(head + sums[0] + "*" + sums[0]).terms()) == 55 + 1
