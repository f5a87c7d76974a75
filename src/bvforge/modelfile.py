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
comment.  The ``generators``, ``structure`` and ``closure`` sections are
the tables of ``jet.MODEL_TABLES``: each ``jet.ModelTable`` gives its
section name, entry head and key, and the checks of its entries.  Each
entry is checked as it is read, by the same checks ``ModelSpec`` makes
(``jet.ModelNames`` and the antisymmetry of its table), with the
document's jet bound; every refusal names the line of its entry, and a
refused key label its column.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from .algebra import GeneratorKind, LocalFunction
from .expr import (
    MAX_DEFORMATION_ORDER,
    ExpressionSyntaxError,
    SemanticError,
    Token,
    TokenStream,
    format_local_function,
    parse_jet_indices,
    parse_remaining_expression,
    tokenize,
)
from .jet import MODEL_TABLES, ModelNames, ModelSpec, ModelTable, check_unique_labels

__all__ = ["ModelDocument", "parse_document", "parse_model", "print_model"]

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


def _entry_stream(stream: TokenStream, raw: str, lineno: int) -> TokenStream:
    return stream.restart(tokenize(raw.split("#", 1)[0], first_line=lineno))


def _scalar_stream(stream: TokenStream, section: tuple[int, str, list]) -> TokenStream:
    """The document's cursor over a header line, positioned after the keyword."""
    lineno, raw, _ = section
    _entry_stream(stream, raw, lineno).advance()
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


def _parse_key(stream: TokenStream, table: ModelTable) -> tuple[tuple[Token, ...], tuple[int, ...]]:
    _expect_head(stream, table.head, table.section)
    stream.expect("LBRACKET", "'['")
    families = [_family_token(stream)]
    while stream.accept("COMMA"):
        families.append(_family_token(stream))
    if len(families) != len(table.slots):
        tok = stream.current
        raise SemanticError(
            f"section {table.section!r} keys take {len(table.slots)} family labels,"
            f" got {len(families)}", tok.line, tok.column)
    jet: tuple[int, ...] = ()
    if stream.accept("SEMI"):
        if not table.jet:
            tok = stream.current
            raise SemanticError(
                f"section {table.section!r} keys carry no jet index", tok.line, tok.column)
        jet = parse_jet_indices(stream)
    stream.expect("RBRACKET", "']'")
    stream.expect("EQUALS", "'='")
    return tuple(families), jet


def _at(line: int, column: int, check: Callable[..., None], *args) -> None:
    """Run one check on model data; its refusal is reported at (line, column)."""
    try:
        check(*args)
    except ValueError as err:
        raise SemanticError(str(err), line, column) from err


def _check_deformation(names: ModelNames, f: LocalFunction, line: int) -> None:
    """A combination of single unjetted atoms over the whole complex."""
    if f.constant_term() != 0:
        raise SemanticError("deformation entries have no constant part", line, 1)
    for factors, _ in f.sorted_terms():
        if len(factors) != 1 or factors[0][1] != 1:
            raise SemanticError("deformation entries must be linear in the generators", line, 1)
        g = factors[0][0]
        if g.jet:
            raise SemanticError("deformation entries must not carry jet indices", line, 1)
        if g.kind in (GeneratorKind.FIELD, GeneratorKind.ANTIFIELD):
            _at(line, 1, names.field_label, g.family)
        elif g.kind in (GeneratorKind.GHOST, GeneratorKind.ANTIGHOST):
            _at(line, 1, names.gauge_label, g.family)
        else:
            raise SemanticError("base coordinates do not belong in a deformation entry", line, 1)


_TABLE_SECTIONS = (*(t.section for t in MODEL_TABLES), "deformation")
_SECTION_KEYWORDS = ("dimension", "fields", "gauge", "bounds", "lagrangian", *_TABLE_SECTIONS)


def _parse_families(stream: TokenStream, sections: dict, what: str, kind: str) -> tuple[str, ...]:
    """The family labels of section ``what``, none when it is absent."""
    if what not in sections:
        return ()
    _scalar_stream(stream, sections[what])
    names: list[str] = []
    while stream.current.kind in ("IDENT", "INT"):
        names.append(stream.advance().text)
    stream.expect("EOF", f"family labels only in section {what!r}")
    _at(sections[what][0], 1, check_unique_labels, names, kind)
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
    # one cursor, and with it one budget of term products, for every line
    stream = TokenStream([])

    dimension = 0
    if "dimension" in sections:
        _scalar_stream(stream, sections["dimension"])
        dim_tok = stream.expect("INT", "a nonnegative integer dimension")
        stream.expect("EOF", "end of line")
        dimension = int(dim_tok.text)

    max_jet_order, max_poly_degree = 3, 4
    if "bounds" in sections:
        max_jet_order, max_poly_degree = _parse_bounds(
            _scalar_stream(stream, sections["bounds"]), sections["bounds"][0])

    fields = _parse_families(stream, sections, "fields", "field")
    gauge = _parse_families(stream, sections, "gauge", "gauge")

    names = ModelNames(dimension, frozenset(fields), frozenset(gauge), max_jet_order)

    lagrangian = LocalFunction.zero()
    if "lagrangian" in sections:
        lagrangian = parse_remaining_expression(_scalar_stream(stream, sections["lagrangian"]))
        _at(sections["lagrangian"][0], 1, names.field_sector, lagrangian)

    tables: dict[str, dict] = {}
    for table in MODEL_TABLES:
        if table.section not in sections:
            continue
        entries: dict[tuple, LocalFunction] = {}
        for lineno, raw in sections[table.section][2]:
            _entry_stream(stream, raw, lineno)
            tokens, jet = _parse_key(stream, table)
            for check, tok in zip(table.slots, tokens):
                _at(tok.line, tok.column, check, names, tok.text)
            _at(lineno, 1, names.jet, jet)
            key = tuple(tok.text for tok in tokens) + ((jet,) if table.jet else ())
            if key in entries:
                raise SemanticError(f"duplicate {table.noun} entry {key}", lineno, 1)
            value = parse_remaining_expression(stream)
            _at(lineno, 1, table.check_value, names, entries, key, value)
            entries[key] = value
        tables[table.attr] = entries

    deformation: dict[int, LocalFunction] = {}
    if "deformation" in sections:
        for lineno, raw in sections["deformation"][2]:
            _entry_stream(stream, raw, lineno)
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
            value = parse_remaining_expression(stream)
            _check_deformation(names, value, lineno)
            deformation[power] = value

    spec = ModelSpec(
        spatial_dim=dimension,
        fields=fields,
        gauge_indices=gauge,
        lagrangian=lagrangian,
        max_jet_order=max_jet_order,
        max_poly_degree=max_poly_degree,
        **tables,
    )
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
    for table in MODEL_TABLES:
        entries = getattr(m, table.attr)
        if entries is None or not (entries or table.print_empty):
            continue
        lines.append(table.section)
        for key in sorted(entries):
            families, jet = (key[:-1], key[-1]) if table.jet else (key, ())
            suffix = f"; {' '.join(str(i) for i in jet)}" if jet else ""
            value = format_local_function(entries[key])
            lines.append(f"  {table.head}[{', '.join(families)}{suffix}] = {value}")
    if deformation:
        lines.append("deformation")
        for power in sorted(deformation):
            lines.append(f"  t^{power} = {format_local_function(deformation[power])}")
    return "\n".join(lines) + "\n"
