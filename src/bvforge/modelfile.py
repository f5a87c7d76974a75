"""Model documents: a line-oriented keyword format around the grammar.

A document consists of sections, one header per line.  The scalar
sections ``dimension``, ``fields``, ``gauge``, ``bounds``, and
``lagrangian`` take their content on the header line itself; the table
sections ``generators``, ``structure``, ``closure``, and ``deformation``
are followed by one entry per line:

    dimension 0
    fields 1 2 3
    gauge 1 2 3
    bounds jet=3 deg=4
    lagrangian 1/2*u[1; 1]^2
    generators
      r[1, 2; 1] = u[3]
    structure
      c[3, 1, 2] = 1
    closure
      nu[1, 2, 1, 2] = u[3]
    deformation
      t^1 = C[1]

Sections may appear in any order, each at most once; ``#`` starts a
comment.  Parsing validates family names, jet directions, sector
content, and the declared ansatz bounds, and reports every rejection
with the source position.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .algebra import GeneratorKind, LocalFunction
from .expr import (
    MAX_DEFORMATION_ORDER,
    ExpressionSyntaxError,
    SemanticError,
    Token,
    TokenStream,
    format_local_function,
    parse_remaining_expression,
    tokenize,
)
from .jet import ModelSpec

__all__ = ["ModelDocument", "parse_document", "parse_model", "print_model"]

_SECTION_KEYWORDS = (
    "dimension", "fields", "gauge", "bounds", "lagrangian",
    "generators", "structure", "closure", "deformation",
)
_TABLE_SECTIONS = ("generators", "structure", "closure", "deformation")
_ENTRY_HEADS = {"generators": "r", "structure": "c", "closure": "nu", "deformation": "t"}


@dataclass
class ModelDocument:
    """A parsed document: the model plus the optional deformation table."""

    spec: ModelSpec
    deformation: dict[int, LocalFunction] = dataclass_field(default_factory=dict)


# ------------------------------------------------------------- parsing

def _split_sections(text: str) -> dict[str, tuple[int, str, list[tuple[int, str]]]]:
    """Group source lines by section.

    Returns section name -> (header line number, header line, entry
    lines).  Entry lines only follow table-section headers.
    """
    sections: dict[str, tuple[int, str, list[tuple[int, str]]]] = {}
    current_table: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in _SECTION_KEYWORDS:
            if head in sections:
                raise SemanticError(f"duplicate section {head!r}", lineno, 1)
            if head in _TABLE_SECTIONS:
                if line != head:
                    raise SemanticError(
                        f"section {head!r} takes entries on the following lines",
                        lineno, 1)
                current_table = head
            else:
                current_table = None
            sections[head] = (lineno, raw, [])
            continue
        if current_table is None:
            column = len(raw) - len(raw.lstrip()) + 1
            raise ExpressionSyntaxError(
                f"expected a section header, found {head!r}", lineno, column)
        sections[current_table][2].append((lineno, raw))
    return sections


def _entry_stream(raw: str, lineno: int) -> TokenStream:
    return TokenStream(tokenize(raw.split("#", 1)[0], first_line=lineno))


def _scalar_stream(section: tuple[int, str, list]) -> TokenStream:
    """Token cursor over a header line, positioned after the keyword."""
    lineno, raw, _ = section
    stream = _entry_stream(raw, lineno)
    stream.advance()
    return stream


def _expect_head(stream: TokenStream, want: str, section: str) -> Token:
    tok = stream.current
    if tok.kind != "IDENT" or tok.text != want:
        got = tok.text or "end of line"
        raise ExpressionSyntaxError(
            f"entries of section {section!r} start with {want!r}, found {got!r}",
            tok.line, tok.column)
    return stream.advance()


def _family_token(stream: TokenStream) -> Token:
    tok = stream.current
    if tok.kind not in ("IDENT", "INT"):
        raise ExpressionSyntaxError(
            f"expected a family label, found {tok.text or 'end of line'!r}",
            tok.line, tok.column)
    return stream.advance()


def _parse_key(stream: TokenStream, section: str, n_families: int,
               allow_jet: bool) -> tuple[tuple[Token, ...], tuple[int, ...]]:
    _expect_head(stream, _ENTRY_HEADS[section], section)
    stream.expect("LBRACKET", "'['")
    families = [_family_token(stream)]
    while stream.accept("COMMA"):
        families.append(_family_token(stream))
    if len(families) != n_families:
        tok = stream.current
        raise SemanticError(
            f"section {section!r} keys take {n_families} family labels,"
            f" got {len(families)}", tok.line, tok.column)
    jet: tuple[int, ...] = ()
    if stream.accept("SEMI"):
        if not allow_jet:
            tok = stream.current
            raise SemanticError(
                f"section {section!r} keys carry no jet index", tok.line, tok.column)
        indices = []
        while stream.current.kind == "INT":
            indices.append(int(stream.advance().text))
        if not indices:
            tok = stream.current
            raise ExpressionSyntaxError(
                "expected at least one jet index after ';'", tok.line, tok.column)
        jet = tuple(sorted(indices))
    stream.expect("RBRACKET", "']'")
    stream.expect("EQUALS", "'='")
    return tuple(families), jet


def _parse_entry_value(stream: TokenStream) -> LocalFunction:
    return parse_remaining_expression(stream)


class _Checker:
    """Shared semantic checks with document positions."""

    def __init__(self, dimension: int, fields: tuple[str, ...],
                 gauge: tuple[str, ...], max_jet_order: int):
        self.dimension = dimension
        self.fields = set(fields)
        self.gauge = set(gauge)
        self.max_jet_order = max_jet_order

    def direction(self, i: int, line: int, column: int) -> None:
        if i > self.dimension:
            raise SemanticError(
                f"direction {i} exceeds dimension {self.dimension}", line, column)

    def field_family(self, name: str, line: int, column: int) -> None:
        if name not in self.fields:
            raise SemanticError(f"unknown field family {name!r}", line, column)

    def gauge_family(self, name: str, line: int, column: int) -> None:
        if name not in self.gauge:
            raise SemanticError(f"unknown gauge index {name!r}", line, column)

    def field_sector_expression(self, f: LocalFunction, line: int) -> None:
        """Only base coordinates and fields, within bounds."""
        for g in sorted(f.generators()):
            if g.kind is GeneratorKind.BASE:
                self.direction(int(g.family), line, 1)
            elif g.kind is GeneratorKind.FIELD:
                self.field_family(g.family, line, 1)
                for i in g.jet:
                    self.direction(i, line, 1)
                if len(g.jet) > self.max_jet_order:
                    raise SemanticError(
                        f"jet order {len(g.jet)} exceeds bound {self.max_jet_order}",
                        line, 1)
            else:
                raise SemanticError(
                    f"{g.kind.value} atoms do not belong in the field sector",
                    line, 1)

    def linear_complex_expression(self, f: LocalFunction, line: int) -> None:
        """A combination of single unjetted atoms over the whole complex."""
        if f.constant_term() != 0:
            raise SemanticError(
                "deformation entries have no constant part", line, 1)
        for m in f.monomials():
            if len(m.factors) != 1 or m.factors[0][1] != 1:
                raise SemanticError(
                    "deformation entries must be linear in the generators", line, 1)
            g = m.factors[0][0]
            if g.jet:
                raise SemanticError(
                    "deformation entries must not carry jet indices", line, 1)
            if g.kind in (GeneratorKind.FIELD, GeneratorKind.ANTIFIELD):
                self.field_family(g.family, line, 1)
            elif g.kind in (GeneratorKind.GHOST, GeneratorKind.ANTIGHOST):
                self.gauge_family(g.family, line, 1)
            else:
                raise SemanticError(
                    "base coordinates do not belong in a deformation entry", line, 1)


def _parse_families(stream: TokenStream, lineno: int, what: str) -> tuple[str, ...]:
    names: list[str] = []
    while stream.current.kind in ("IDENT", "INT"):
        names.append(stream.advance().text)
    stream.expect("EOF", f"family labels only in section {what!r}")
    if len(set(names)) != len(names):
        raise SemanticError(f"duplicate {what} identifiers", lineno, 1)
    return tuple(names)


def _parse_bounds(stream: TokenStream, lineno: int) -> tuple[int, int]:
    values: dict[str, int] = {}
    while stream.current.kind == "IDENT":
        key_tok = stream.advance()
        if key_tok.text not in ("jet", "deg"):
            raise SemanticError(
                f"unknown bound {key_tok.text!r} (expected jet or deg)",
                key_tok.line, key_tok.column)
        if key_tok.text in values:
            raise SemanticError(
                f"duplicate bound {key_tok.text!r}", key_tok.line, key_tok.column)
        stream.expect("EQUALS", "'='")
        value_tok = stream.expect("INT", "a nonnegative integer")
        values[key_tok.text] = int(value_tok.text)
    stream.expect("EOF", "end of line")
    if set(values) != {"jet", "deg"}:
        raise SemanticError("bounds must set both jet and deg", lineno, 1)
    return values["jet"], values["deg"]


def parse_document(text: str) -> ModelDocument:
    sections = _split_sections(text)

    dimension = 0
    if "dimension" in sections:
        stream = _scalar_stream(sections["dimension"])
        dim_tok = stream.expect("INT", "a nonnegative integer dimension")
        stream.expect("EOF", "end of line")
        dimension = int(dim_tok.text)

    max_jet_order, max_poly_degree = 3, 4
    if "bounds" in sections:
        max_jet_order, max_poly_degree = _parse_bounds(
            _scalar_stream(sections["bounds"]), sections["bounds"][0])

    fields: tuple[str, ...] = ()
    if "fields" in sections:
        fields = _parse_families(
            _scalar_stream(sections["fields"]), sections["fields"][0], "fields")

    gauge: tuple[str, ...] = ()
    if "gauge" in sections:
        gauge = _parse_families(
            _scalar_stream(sections["gauge"]), sections["gauge"][0], "gauge")

    checker = _Checker(dimension, fields, gauge, max_jet_order)

    lagrangian = LocalFunction.zero()
    if "lagrangian" in sections:
        lineno = sections["lagrangian"][0]
        lagrangian = _parse_entry_value(_scalar_stream(sections["lagrangian"]))
        checker.field_sector_expression(lagrangian, lineno)

    gauge_coefficients: dict[tuple[str, str, tuple[int, ...]], LocalFunction] = {}
    if "generators" in sections:
        for lineno, raw in sections["generators"][2]:
            stream = _entry_stream(raw, lineno)
            (a_tok, alpha_tok), jet = _parse_key(stream, "generators", 2, allow_jet=True)
            checker.field_family(a_tok.text, a_tok.line, a_tok.column)
            checker.gauge_family(alpha_tok.text, alpha_tok.line, alpha_tok.column)
            for i in jet:
                checker.direction(i, lineno, 1)
            if len(jet) > max_jet_order:
                raise SemanticError(
                    f"jet order {len(jet)} exceeds bound {max_jet_order}", lineno, 1)
            key = (a_tok.text, alpha_tok.text, jet)
            if key in gauge_coefficients:
                raise SemanticError(f"duplicate generator entry {key}", lineno, 1)
            value = _parse_entry_value(stream)
            checker.field_sector_expression(value, lineno)
            gauge_coefficients[key] = value

    structure_functions: dict[tuple[str, str, str], LocalFunction] | None = None
    if "structure" in sections:
        structure_functions = {}
        for lineno, raw in sections["structure"][2]:
            stream = _entry_stream(raw, lineno)
            (g_tok, a_tok, b_tok), _ = _parse_key(stream, "structure", 3, allow_jet=False)
            for tok in (g_tok, a_tok, b_tok):
                checker.gauge_family(tok.text, tok.line, tok.column)
            key = (g_tok.text, a_tok.text, b_tok.text)
            if key in structure_functions:
                raise SemanticError(f"duplicate structure entry {key}", lineno, 1)
            value = _parse_entry_value(stream)
            checker.field_sector_expression(value, lineno)
            structure_functions[key] = value

    closure_functions: dict[tuple[str, str, str, str], LocalFunction] | None = None
    if "closure" in sections:
        closure_functions = {}
        for lineno, raw in sections["closure"][2]:
            stream = _entry_stream(raw, lineno)
            (a_tok, b_tok, al_tok, be_tok), _ = _parse_key(stream, "closure", 4, allow_jet=False)
            checker.field_family(a_tok.text, a_tok.line, a_tok.column)
            checker.field_family(b_tok.text, b_tok.line, b_tok.column)
            checker.gauge_family(al_tok.text, al_tok.line, al_tok.column)
            checker.gauge_family(be_tok.text, be_tok.line, be_tok.column)
            key = (a_tok.text, b_tok.text, al_tok.text, be_tok.text)
            if key in closure_functions:
                raise SemanticError(f"duplicate closure entry {key}", lineno, 1)
            value = _parse_entry_value(stream)
            checker.field_sector_expression(value, lineno)
            closure_functions[key] = value

    deformation: dict[int, LocalFunction] = {}
    if "deformation" in sections:
        for lineno, raw in sections["deformation"][2]:
            stream = _entry_stream(raw, lineno)
            _expect_head(stream, "t", "deformation")
            stream.expect("CARET", "'^'")
            power_tok = stream.expect("INT", "a positive power")
            power = int(power_tok.text)
            if power < 1:
                raise SemanticError(
                    "deformation powers start at 1", power_tok.line, power_tok.column)
            if power > MAX_DEFORMATION_ORDER:
                raise SemanticError(
                    f"deformation power {power} exceeds {MAX_DEFORMATION_ORDER}",
                    power_tok.line, power_tok.column)
            if power in deformation:
                raise SemanticError(
                    f"duplicate deformation entry t^{power}",
                    power_tok.line, power_tok.column)
            stream.expect("EQUALS", "'='")
            value = _parse_entry_value(stream)
            checker.linear_complex_expression(value, lineno)
            deformation[power] = value

    try:
        spec = ModelSpec(
            spatial_dim=dimension,
            fields=fields,
            gauge_indices=gauge,
            lagrangian=lagrangian,
            gauge_coefficients=gauge_coefficients,
            structure_functions=structure_functions,
            closure_functions=closure_functions,
            max_jet_order=max_jet_order,
            max_poly_degree=max_poly_degree,
        )
    except ValueError as err:
        raise SemanticError(str(err), 1, 1) from err
    return ModelDocument(spec=spec, deformation=deformation)


def parse_model(text: str) -> ModelSpec:
    return parse_document(text).spec


# ------------------------------------------------------------ printing

def print_model(m: ModelSpec, deformation: dict[int, LocalFunction] | None = None) -> str:
    """Render a document that parses back to an equal ModelSpec."""
    lines = [f"dimension {m.spatial_dim}"]
    if m.fields:
        lines.append("fields " + " ".join(m.fields))
    if m.gauge_indices:
        lines.append("gauge " + " ".join(m.gauge_indices))
    lines.append(f"bounds jet={m.max_jet_order} deg={m.max_poly_degree}")
    lines.append(f"lagrangian {format_local_function(m.lagrangian)}")
    if m.gauge_coefficients:
        lines.append("generators")
        for (a, alpha, jet) in sorted(m.gauge_coefficients):
            suffix = f"; {' '.join(str(i) for i in jet)}" if jet else ""
            value = format_local_function(m.gauge_coefficients[(a, alpha, jet)])
            lines.append(f"  r[{a}, {alpha}{suffix}] = {value}")
    if m.structure_functions is not None:
        lines.append("structure")
        for (gamma, alpha, beta) in sorted(m.structure_functions):
            value = format_local_function(m.structure_functions[(gamma, alpha, beta)])
            lines.append(f"  c[{gamma}, {alpha}, {beta}] = {value}")
    if m.closure_functions is not None:
        lines.append("closure")
        for (a, b, alpha, beta) in sorted(m.closure_functions):
            value = format_local_function(m.closure_functions[(a, b, alpha, beta)])
            lines.append(f"  nu[{a}, {b}, {alpha}, {beta}] = {value}")
    if deformation:
        lines.append("deformation")
        for power in sorted(deformation):
            lines.append(f"  t^{power} = {format_local_function(deformation[power])}")
    return "\n".join(lines) + "\n"
