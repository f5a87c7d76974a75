"""Model documents: section parsing, validation, and round trips."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from bvforge.algebra import LocalFunction, antighost, field, gen, ghost
from bvforge.cli import run_command
from bvforge.expr import (MAX_DEFORMATION_ORDER, ExpressionSyntaxError, SemanticError,
                          parse_expression)
from bvforge.jet import MODEL_TABLES, ModelSpec, ModelTable
from bvforge.modelfile import parse_document, parse_model, print_model
from harnesses import assert_ints_when_integral
from shared import FIXTURES

ABELIAN_DOC = """
# two scalars with one shared shift symmetry
dimension 0
fields 1 2
gauge e
lagrangian 1/2*u[1]^2 - u[1]*u[2] + 1/2*u[2]^2
generators
  r[1, e] = 1
  r[2, e] = 1
"""

SO3_GHOST_DOC = """
dimension 0
gauge 1 2 3
lagrangian 0
structure
  c[3, 1, 2] = 1
  c[1, 2, 3] = 1
  c[2, 3, 1] = 1
"""

SCALAR_DOC = """
dimension 1
fields 1
bounds jet=3 deg=4
lagrangian 1/2*u[1; 1]^2
"""


def test_abelian_document_matches_handbuilt_spec():
    u1, u2 = gen(field("1")), gen(field("2"))
    expected = ModelSpec(
        spatial_dim=0,
        fields=("1", "2"),
        gauge_indices=("e",),
        lagrangian=Fraction(1, 2) * (u1 - u2) ** 2,
        gauge_coefficients={
            ("1", "e", ()): LocalFunction.one(),
            ("2", "e", ()): LocalFunction.one(),
        },
    )
    assert parse_model(ABELIAN_DOC) == expected


def test_sections_parse_in_any_order():
    reordered = """
lagrangian 1/2*u[1]^2 - u[1]*u[2] + 1/2*u[2]^2
generators
  r[1, e] = 1
  r[2, e] = 1
gauge e
fields 1 2
dimension 0
"""
    assert parse_model(reordered) == parse_model(ABELIAN_DOC)


def test_defaults_for_missing_sections():
    m = parse_model("dimension 0")
    assert m.fields == ()
    assert m.gauge_indices == ()
    assert m.lagrangian.is_zero
    assert m.structure_functions is None
    assert (m.max_jet_order, m.max_poly_degree) == (3, 4)


def test_empty_structure_section_declares_closedness():
    m = parse_model("dimension 0\ngauge 1\nstructure\n")
    assert m.structure_functions == {}


def test_unsorted_jet_list_normalizes():
    m = parse_model("dimension 2\nfields 1\nlagrangian u[1; 2 1]")
    assert m.lagrangian == gen(field("1", (1, 2)))


def test_bounds_keys_in_either_order():
    m = parse_model("dimension 0\nbounds deg=5 jet=2")
    assert (m.max_jet_order, m.max_poly_degree) == (2, 5)
    with pytest.raises(SemanticError, match="both jet and deg"):
        parse_model("dimension 0\nbounds jet=2")


def test_deformation_section_is_kept_on_the_document():
    doc = parse_document(
        "dimension 0\ngauge e\nlagrangian 0\n"
        "deformation\n  t^1 = C[e]\n  t^2 = 1/2*C[e]\n")
    assert doc.deformation == {
        1: gen(ghost("e")),
        2: Fraction(1, 2) * gen(ghost("e")),
    }
    assert doc.spec.gauge_indices == ("e",)


def test_deformation_allows_antighosts_and_sums():
    doc = parse_document(
        "dimension 0\nfields 1\ngauge e\n"
        "deformation\n  t^1 = C[e] - 2*Cstar[e]\n")
    assert doc.deformation[1] == gen(ghost("e")) - 2 * gen(antighost("e"))


# ------------------------------------------------------------ rejections

@pytest.mark.parametrize("text, message", [
    ("dimension 0\nfields 1\ngenerators\n  r[9, e] = 1", "unknown field family '9'"),
    ("dimension 0\nfields 1\ngauge e\ngenerators\n  r[1, f] = 1", "unknown gauge index 'f'"),
    ("dimension 0\ngauge 1 2\nstructure\n  c[1, 2, 9] = 1", "unknown gauge index '9'"),
    ("dimension 0\nfields 1\nlagrangian u[2]", "unknown field family '2'"),
    ("dimension 0\nfields 1\nlagrangian u[1; 1]", "direction 1 exceeds dimension 0"),
    ("dimension 1\nfields 1\nbounds jet=1 deg=4\nlagrangian u[1; 1 1]",
     "jet order 2 exceeds bound 1"),
    ("dimension 0\ngauge e\nlagrangian C[e]", "do not belong in the field sector"),
    ("dimension 0\nfields 1\nlagrangian ustar[1]", "do not belong in the field sector"),
    ("dimension 0\ngauge e\nlagrangian C[e]^2", "cannot carry power 2"),
    ("dimension 0\nfields 1 1", "duplicate field identifiers"),
    ("dimension 0\ndimension 1", "duplicate section 'dimension'"),
    ("dimension 0\nfields 1\ngenerators\n  r[1, e] = 1\n  r[1, e] = 2",
     "unknown gauge index 'e'"),
    ("dimension 0\nfields 1\ndeformation\n  t^1 = u[1]*u[1]",
     "linear in the generators"),
    ("dimension 0\nfields 1\ndeformation\n  t^1 = u[1] + 1", "no constant part"),
    ("dimension 0\nfields 1\ndeformation\n  t^0 = u[1]", "powers start at 1"),
    ("dimension 0\nfields 1\ndeformation\n  t^1 = x[1]",
     "do not belong in a deformation entry"),
])
def test_semantic_rejections(text, message):
    with pytest.raises(SemanticError, match=message):
        parse_document(text)


def test_duplicate_labels_are_refused_alike_at_their_line():
    for text, line, fields, gauge, message in (
            ("dimension 0\nfields 1 2 1\ngauge e", 2, ("1", "2", "1"), ("e",),
             "duplicate field identifiers"),
            ("dimension 0\nfields 1\n\ngauge e f e", 4, ("1",), ("e", "f", "e"),
             "duplicate gauge identifiers")):
        with pytest.raises(SemanticError) as err:
            parse_document(text)
        assert (err.value.line, err.value.column, err.value.reason) == (line, 1, message)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec(spatial_dim=0, fields=fields, gauge_indices=gauge,
                      lagrangian=LocalFunction.zero())


def test_duplicate_generator_entries_rejected():
    text = ("dimension 0\nfields 1\ngauge e\ngenerators\n"
            "  r[1, e] = 1\n  r[1, e] = 2")
    with pytest.raises(SemanticError, match="duplicate generator entry"):
        parse_document(text)


def test_normalized_jet_keys_collide():
    text = ("dimension 2\nfields 1\ngauge e\ngenerators\n"
            "  r[1, e; 1 2] = 1\n  r[1, e; 2 1] = 2")
    with pytest.raises(SemanticError, match="duplicate generator entry"):
        parse_document(text)


def test_structure_antisymmetry_is_enforced():
    text = ("dimension 0\ngauge 1 2 3\nstructure\n"
            "  c[3, 1, 2] = 1\n  c[3, 2, 1] = 1")
    with pytest.raises(SemanticError, match="not antisymmetric"):
        parse_document(text)


def test_entries_need_a_table_section():
    with pytest.raises(ExpressionSyntaxError, match="expected a section header"):
        parse_document("r[1, e] = 1")


def test_wrong_entry_head_is_rejected():
    text = "dimension 0\ngauge 1 2\ngenerators\n  c[1, 1, 2] = 1"
    with pytest.raises(ExpressionSyntaxError, match="start with 'r'"):
        parse_document(text)


def test_table_headers_take_no_inline_content():
    with pytest.raises(SemanticError, match="entries on the following lines"):
        parse_document("dimension 0\nfields 1\ngauge e\ngenerators r[1, e] = 1")


def test_error_positions_point_into_the_document():
    text = "dimension 0\nfields 1\ngauge e\ngenerators\n  r[1, e] = u[1] +"
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_document(text)
    assert err.value.line == 5


def test_non_ascii_digits_are_refused_with_a_position():
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
        parse_document("dimension \u00b2\nfields 1\nlagrangian u[1]^2\n")
    assert (err.value.line, err.value.column) == (1, 11)
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
        parse_document("dimension 3\nfields 1\nlagrangian x[\u0663]*u[1]\n")
    assert (err.value.line, err.value.column) == (3, 14)


# ------------------------------------------------- one validator, every line

HEAD = "dimension 1\nfields 1 2\ngauge 1 2\nbounds jet=1 deg=4\n"

# (table section, entries as (ModelSpec key, value), the refusal's column
# and words): the last entry is the one refused; section None is the
# lagrangian.  A refused key label keeps its column, the rest take 1.
REFUSALS = [
    ("generators", [(("1", "1", ()), "1"), (("9", "1", ()), "1")], 5, "unknown field family '9'"),
    ("generators", [(("1", "1", ()), "1"), (("2", "f", ()), "1")], 8, "unknown gauge index 'f'"),
    ("generators", [(("1", "1", ()), "1"), (("2", "1", (0,)), "1")], 1,
     "spatial directions start at 1, got 0"),
    ("closure", [(("1", "2", "1", "2"), "u[1; 2]")], 1, "direction 2 exceeds dimension 1"),
    ("structure", [(("2", "1", "2"), "u[1]"), (("1", "1", "2"), "C[1]")], 1,
     "C atoms do not belong in the field sector"),
    (None, [((), "x[2]*u[1]")], 1, "direction 2 exceeds dimension 1"),
    ("structure", [(("1", "2", "2"), "1")], 1, "a diagonal entry must vanish"),
    ("structure", [(("1", "1", "2"), "1"), (("1", "2", "1"), "1")], 1,
     "entries ('1', '1', '2') and ('1', '2', '1') are not antisymmetric"),
    ("closure", [(("1", "2", "1", "2"), "1"), (("2", "1", "2", "1"), "2")], 1,
     "entries ('1', '2', '1', '2') and ('2', '1', '2', '1') are not antisymmetric"),
]
_TABLES = {table.section: table for table in MODEL_TABLES}


def _entry_line(table: ModelTable, key: tuple, value: str) -> str:
    labels, jet = (key[:-1], key[-1]) if table.jet else (key, ())
    suffix = f"; {' '.join(map(str, jet))}" if jet else ""
    return f"  {table.head}[{', '.join(labels)}{suffix}] = {value}"


@pytest.mark.parametrize("section, entries, column, words", REFUSALS)
def test_parser_and_model_spec_refuse_alike(section, entries, column, words):
    # the document refuses the last entry at its own line, and ModelSpec,
    # given the same data, in the same words after the entry's name
    if section is None:
        text = HEAD + f"lagrangian {entries[0][1]}\n"
        kwargs = {"lagrangian": parse_expression(entries[0][1])}
    else:
        table = _TABLES[section]
        text = HEAD + section + "\n" + "".join(_entry_line(table, k, v) + "\n" for k, v in entries)
        kwargs = {"lagrangian": LocalFunction.zero(),
                  table.attr: {k: parse_expression(v) for k, v in entries}}
    with pytest.raises(SemanticError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column, err.value.reason) == (text.count("\n"), column, words)
    with pytest.raises(ValueError) as err:
        ModelSpec(spatial_dim=1, fields=("1", "2"), gauge_indices=("1", "2"), **kwargs)
    assert str(err.value).endswith(f": {words}"), str(err.value)
    assert not isinstance(err.value, SemanticError)


def test_refusals_that_model_spec_once_made_name_their_line(tmp_path):
    path = tmp_path / "model.bv"
    documents = [
        ("dimension 1\nfields 1\ngauge e\ngenerators\n  r[1, e; 0] = 1\n",
         "error: line 5, column 1: spatial directions start at 1, got 0\n"),
        ("dimension 0\ngauge 1 2\nstructure\n  c[1, 1, 2] = 1\n  c[1, 2, 1] = 1\n",
         "error: line 5, column 1: entries ('1', '1', '2') and ('1', '2', '1')"
         " are not antisymmetric\n"),
        # nu[2, 1, 2, 1] is nu[1, 2, 1, 2] with both pairs swapped, so the two must agree
        ("dimension 0\nfields 1 2\ngauge 1 2\nclosure\n  nu[1, 2, 1, 2] = 1\n"
         "  nu[2, 1, 2, 1] = 2\n",
         "error: line 6, column 1: entries ('1', '2', '1', '2') and ('2', '1', '2', '1')"
         " are not antisymmetric\n"),
    ]
    for text, refusal in documents:
        path.write_text(text, encoding="utf-8")
        assert run_command(["el", str(path)]) == (2, refusal)
    one, two = LocalFunction.one(), LocalFunction.constant(2)
    with pytest.raises(ValueError, match="closure function .* are not antisymmetric"):
        ModelSpec(spatial_dim=0, fields=("1", "2"), gauge_indices=("1", "2"),
                  lagrangian=LocalFunction.zero(),
                  closure_functions={("1", "2", "1", "2"): one, ("2", "1", "2", "1"): two})


_VALUES = ("1", "-u[1]", "2*u[2; 1]", "x[1]*u[3]", "1/2*u[1]^2 + u[3; 1 1]")


def _bad_entry(table: str, earlier: list, rng: random.Random) -> str:
    """One entry of ``table`` that the checks refuse, given the entries above it."""
    if table == "generators":
        return rng.choice(["  r[7, 1] = 1", "  r[1, 7] = 1", "  r[1, 2; 0] = 1", "  r[1, 2; 3] = 1",
                           "  r[2, 3; 1 1 1] = 1", "  r[3, 3] = C[1]", "  r[3, 1] = u[7]",
                           "  r[2, 2] = x[3]", "  r[1, 1] = ustar[1]", "  r[1, 3] = u[1; 1 2 2]"])
    structure = table == "structure"
    kind = rng.choice(["unknown", "diagonal"] + (["swap"] if earlier else []))
    if kind == "unknown":
        return "  c[1, 1, 9] = 1" if structure else "  nu[1, 2, 1, 9] = 1"
    if kind == "diagonal":
        return "  c[1, 2, 2] = u[1]" if structure else "  nu[3, 3, 1, 2] = 1"
    key, value = rng.choice(earlier)
    if structure:
        head, swapped, n = "c", (key[0], key[2], key[1]), 1
    else:
        swap_fields, swap_gauge = rng.choice([(True, False), (False, True), (True, True)])
        a, b, alpha, beta = key
        head = "nu"
        swapped = ((b, a) if swap_fields else (a, b)) + ((beta, alpha) if swap_gauge else (alpha, beta))
        n = swap_fields + swap_gauge
    # the earlier value v asks for (-1)^n v here; (-1)^n (v + 1) is never it
    sign = "-" if n % 2 else ""
    return f"  {head}[{', '.join(swapped)}] = {sign}({value} + 1)"


_REASONS = ("unknown field family", "unknown gauge index", "spatial directions start",
            "exceeds dimension", "exceeds bound", "field sector", "diagonal", "not antisymmetric")


def test_a_seeded_bad_entry_is_refused_at_its_own_line():
    rng = random.Random(20261020)
    gauge_keys = [(a, alpha, jet) for a in "123" for alpha in "123"
                  for jet in ("", "; 1", "; 2", "; 1 2")]
    structure_keys = [(g, a, b) for g in "123" for a, b in itertools.combinations("123", 2)]
    closure_keys = [(a, b, al, be) for a, b in itertools.combinations("123", 2)
                    for al, be in itertools.combinations("123", 2)]
    lines_seen, reasons = set(), Counter()
    for _ in range(200):
        lines = ["dimension 2", "fields 1 2 3", "gauge 1 2 3", "bounds jet=2 deg=4",
                 f"lagrangian {rng.choice(_VALUES)}"]
        entries = {}
        for table, keys in (("generators", gauge_keys), ("structure", structure_keys),
                            ("closure", closure_keys)):
            lines.append(table)
            chosen = rng.sample(keys, rng.randint(1, 5))
            entries[table] = []
            for key in chosen:
                value = rng.choice(_VALUES)
                if table == "generators":
                    lines.append(f"  r[{key[0]}, {key[1]}{key[2]}] = {value}")
                else:
                    lines.append(f"  {'c' if table == 'structure' else 'nu'}[{', '.join(key)}] = {value}")
                entries[table].append((len(lines), key, value))
        assert parse_document("\n".join(lines) + "\n").spec.closure_functions
        table = rng.choice(sorted(entries))
        at, _, _ = rng.choice(entries[table])
        earlier = [(key, value) for line, key, value in entries[table] if line < at]
        lines[at - 1] = _bad_entry(table, earlier, rng)
        with pytest.raises(SemanticError) as err:
            parse_document("\n".join(lines) + "\n")
        assert err.value.line == at, ("\n".join(lines), str(err.value))
        lines_seen.add(at)
        reasons[next(r for r in _REASONS if r in err.value.reason)] += 1
    assert len(lines_seen) >= 15, lines_seen
    assert all(reasons[r] >= 5 for r in _REASONS), reasons


_NUMBERS = ("1", "3", "4/2", "1/2", "6/3", "2/4", "3/3", "2/3", "5/10")
_ATOMS = ("u[1]", "u[2; 1]", "x[1]", "u[3]", "u[1; 2]")


def _coefficient_expression(rng: random.Random) -> str:
    """A sum whose rationals multiply and add to integral values as often as not."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        n1, n2, a1, a2 = (rng.choice(_NUMBERS), rng.choice(_NUMBERS),
                          rng.choice(_ATOMS), rng.choice(_ATOMS))
        terms.append(rng.choice((f"{n1}*{a1}", f"{n1}*{n2}*{a1}*{a2}", f"({n1} + {n2})*{a1}",
                                 f"{n1}*{a1} + {n2}*{a1}", f"{n1}*({a1} + {n2})^2", n1)))
    return "".join(f" {rng.choice('+-')} {term}" for term in terms).lstrip(" +")


def test_seeded_documents_store_ints_exactly_when_integral():
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(60):
        lines = ["dimension 2", "fields 1 2 3", "gauge 1 2 3", "bounds jet=2 deg=4",
                 f"lagrangian {_coefficient_expression(rng)}", "generators"]
        lines += [f"  r[{a}, {alpha}{jet}] = {_coefficient_expression(rng)}"
                  for a, alpha, jet in rng.sample([(a, al, j) for a in "123" for al in "123"
                                                   for j in ("", "; 1", "; 1 2")], 4)]
        lines.append("structure")
        lines += [f"  c[{g}, {a}, {b}] = {_coefficient_expression(rng)}" for g, (a, b) in
                  rng.sample(list(itertools.product("123", itertools.combinations("123", 2))), 3)]
        lines += ["closure", f"  nu[1, 2, 1, 3] = {_coefficient_expression(rng)}", "deformation",
                  f"  t^1 = {rng.choice(_NUMBERS)}*u[1] + {rng.choice(_NUMBERS)}*C[2]"]
        document = parse_document("\n".join(lines) + "\n")
        spec = document.spec
        functions = [spec.lagrangian, *spec.gauge_coefficients.values(),
                     *spec.structure_functions.values(), *spec.closure_functions.values(),
                     *document.deformation.values()]
        for f in functions:
            seen += assert_ints_when_integral(c for _, c in f.terms())
    assert seen["int"] > 300 and seen["Fraction"] > 300, seen


# ------------------------------------------------------------ round trip

FULL_SO3_DOC = """
dimension 0
fields 1 2 3
gauge 1 2 3
bounds jet=0 deg=4
lagrangian 0
generators
  r[1, 2] = u[3]
  r[1, 3] = -u[2]
  r[2, 1] = -u[3]
  r[2, 3] = u[1]
  r[3, 1] = u[2]
  r[3, 2] = -u[1]
structure
  c[3, 1, 2] = 1
  c[1, 2, 3] = 1
  c[2, 3, 1] = 1
"""

CLOSURE_DOC = """
dimension 0
fields 1 2 3
gauge 1 2
lagrangian 1/2*u[1]^2
generators
  r[1, 1] = u[2]
structure
  c[2, 1, 2] = u[3]
closure
  nu[2, 3, 1, 2] = 1
"""


@pytest.mark.parametrize("doc", [
    ABELIAN_DOC, SO3_GHOST_DOC, SCALAR_DOC, FULL_SO3_DOC, CLOSURE_DOC,
])
def test_parse_print_parse_is_identity(doc):
    first = parse_model(doc)
    text = print_model(first)
    assert parse_model(text) == first
    # printing is a fixed point after one pass
    assert print_model(parse_model(text)) == text


def test_print_model_includes_deformation():
    doc = parse_document(
        "dimension 0\ngauge e\ndeformation\n  t^1 = C[e]\n")
    text = print_model(doc.spec, doc.deformation)
    again = parse_document(text)
    assert again.spec == doc.spec
    assert again.deformation == doc.deformation


def test_deformation_order_is_bounded():
    text = "dimension 0\nfields 1\ndeformation\n  t^{} = u[1]\n"
    assert parse_document(text.format(MAX_DEFORMATION_ORDER)).deformation == {
        MAX_DEFORMATION_ORDER: LocalFunction.from_generator(field("1"))}
    with pytest.raises(SemanticError, match=f"power 100000 exceeds {MAX_DEFORMATION_ORDER}") as err:
        parse_document(text.format(100000))
    assert (err.value.line, err.value.column) == (4, 5)


# sha256 of print_model for each shipped fixture; every structured report
# names its model by this digest
MODEL_DIGESTS = {
    "aff1.bv": "061eae41b80a3d739c51e7944012432a703a942926f2934431fb644b932e1f50",
    "divergence.bv": "2ca6b2bf3cf33abc8d063aea8e05bb060c36ce5a631b192418ef7bbc5f6faa0f",
    "gl3.bv": "8a7e9fc3add49d32f819735745077fe703ecb1c31426788e0635fbef0e595394",
    "mc_fail.bv": "926d63d0b04fa401e8c137a93a2c43d7c31d3f3cb4bdfba536367d4fc99e554f",
    "open_algebra.bv": "1b1faa98053ec36a640a1c89ad4b2a0112b95a5bda6fc7297b0543c7f945420a",
    "rotation.bv": "4e3cdf1239f29af07b2ee5da8181dbc139c46e43b87bfe076d8142bdc5d675fa",
    "scalar.bv": "6d0d757e2c9bbaadbd4e493609610d4cb9f8e0a151b3c32424890bba9df7fe82",
    "scalar_gauge.bv": "1655ec70bb48dc8acef208c10c6da807139fbe3ae92d0724e1bbd665becb76ca",
    "so3_full.bv": "fc063e77a699513cff8458066b9f32fc944e3295f707a7aad877f79634de6593",
    "so3_ghost.bv": "3716f4ff6781a04f2a3455e89a90c5509d0e9b8d572f10c55dd0512ca2a80288",
    "su2_plane.bv": "54cfc6677f6dcf4fb28cf749031085442419b899e0bee9f1214832edd17d5345",
    "zero.bv": "725446bcf7cacc9c8406149da934ef9b6f1c696fb273eb6b585037555878f979",
}


def test_printed_fixtures_match_their_pinned_digests():
    assert sorted(MODEL_DIGESTS) == sorted(p.name for p in FIXTURES.glob("*.bv"))
    for name, digest in MODEL_DIGESTS.items():
        doc = parse_document((FIXTURES / name).read_text(encoding="utf-8"))
        printed = print_model(doc.spec, doc.deformation)
        assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == digest, name
        status, out = run_command(["el", str(FIXTURES / name), "--format", "structured"])
        assert (status, json.loads(out)["model"]) == (0, digest), name
