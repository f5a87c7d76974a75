"""Surface syntax for local functions.

The grammar covers atoms ``x[i]``, ``u[a]``, ``u[a; i1 i2]``,
``ustar[a; ...]``, ``C[alpha; ...]``, ``Cstar[alpha; ...]``, rational
literals ``p/q``, the operators ``+ - * ^``, and parentheses.  The
printer emits a canonical form that re-parses to an equal value, with
rationals reduced, positive denominators, and ``/1`` suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .algebra import Generator, GeneratorKind, LocalFunction

__all__ = [
    "ExpressionError",
    "ExpressionSyntaxError",
    "SemanticError",
    "Token",
    "TokenStream",
    "tokenize",
    "parse_expression",
    "parse_remaining_expression",
    "format_generator",
    "format_local_function",
    "format_signed_sum",
]


class ExpressionError(ValueError):
    """A rejected input, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class ExpressionSyntaxError(ExpressionError):
    pass


class SemanticError(ExpressionError):
    pass


_ATOM_KINDS = {
    "x": GeneratorKind.BASE,
    "u": GeneratorKind.FIELD,
    "ustar": GeneratorKind.ANTIFIELD,
    "C": GeneratorKind.GHOST,
    "Cstar": GeneratorKind.ANTIGHOST,
}

_PUNCT = {
    "[": "LBRACKET",
    "]": "RBRACKET",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ",": "COMMA",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "/": "SLASH",
    "=": "EQUALS",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Split source text into tokens, dropping comments and whitespace.

    ``first_line`` offsets the reported positions so that fragments cut
    out of a larger document still point at the original file.
    """
    tokens: list[Token] = []
    line = first_line
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, start_col)
        tokens.append(Token(kind, ch, line, start_col))
        i += 1
        column += 1
    tokens.append(Token("EOF", "", line, column))
    return tokens


# Deepest parenthesis nesting the recursive-descent parser accepts.  Each
# level costs three Python frames, so this keeps a hostile input well
# inside the interpreter's recursion limit.
MAX_NESTING = 100

# Largest exponent ``^`` accepts, and most terms its expansion may have by
# the multinomial bound C(e + t - 1, t - 1) for a base of t terms raised to
# the power e.  The power is expanded by repeated multiplication, so both
# bound its cost.
MAX_EXPONENT = 100
MAX_POWER_TERMS = 1000

# Most term products one expression, or one document in all, may take
# over its ``*`` and the steps of its ``^`` expansions: the bounds above
# hold per operator, this one for a chain of them.  No shipped model
# needs more than a hundred.
MAX_TERM_PRODUCTS = 50_000

# Highest order of a deformation entry ``t^K``: the deformation residual
# is the bracket table evaluated at theta(t), and the truncated power
# series products it takes grow with the order.
MAX_DEFORMATION_ORDER = 12


class TokenStream:
    """Cursor over token lists with uniform error reporting and one budget of term products."""

    def __init__(self, tokens: list[Token]):
        self.products = 0
        self.restart(tokens)

    def restart(self, tokens: list[Token]) -> "TokenStream":
        """Read ``tokens`` from the start; the products spent stay spent."""
        self._tokens = tokens
        self._pos = 0
        self.depth = 0
        return self

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    def multiply(self, left: LocalFunction, right: LocalFunction, op: Token) -> LocalFunction:
        """``left * right``, charged to the stream's budget of term
        products and refused at ``op`` before it is built when over it."""
        self.products += len(left.terms()) * len(right.terms())
        if self.products > MAX_TERM_PRODUCTS:
            raise SemanticError(
                f"the document needs more than {MAX_TERM_PRODUCTS} term products",
                op.line, op.column)
        return left * right

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.current
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ExpressionSyntaxError(
                f"expected {expected}, found {got!r}", tok.line, tok.column)
        return self.advance()


# ------------------------------------------------------------ parsing

def parse_jet_indices(stream: TokenStream) -> tuple[int, ...]:
    """The multi-index after the ';' of a generator: one or more integers, sorted."""
    indices: list[int] = []
    while stream.current.kind == "INT":
        indices.append(int(stream.advance().text))
    if not indices:
        tok = stream.current
        raise ExpressionSyntaxError(
            "expected at least one jet index after ';'", tok.line, tok.column)
    return tuple(sorted(indices))


def parse_atom(stream: TokenStream) -> Generator:
    tok = stream.expect("IDENT", "a generator name")
    kind = _ATOM_KINDS.get(tok.text)
    if kind is None:
        raise SemanticError(
            f"unknown generator name {tok.text!r} (expected one of"
            " x, u, ustar, C, Cstar)", tok.line, tok.column)
    stream.expect("LBRACKET", "'['")
    fam_tok = stream.current
    if fam_tok.kind not in ("IDENT", "INT"):
        raise ExpressionSyntaxError(
            f"expected a family label, found {fam_tok.text or 'end of input'!r}",
            fam_tok.line, fam_tok.column)
    stream.advance()
    family = fam_tok.text
    jet: tuple[int, ...] = ()
    if stream.accept("SEMI"):
        if kind is GeneratorKind.BASE:
            raise SemanticError(
                "base coordinates carry no jet index", fam_tok.line, fam_tok.column)
        jet = parse_jet_indices(stream)
    stream.expect("RBRACKET", "']'")
    if kind is GeneratorKind.BASE:
        if fam_tok.kind != "INT" or int(family) < 1:
            raise SemanticError(
                "base coordinates are numbered from 1", fam_tok.line, fam_tok.column)
    return Generator(kind, family, jet)


def _optional_power(stream: TokenStream, base: LocalFunction,
                    odd: Generator | None = None) -> LocalFunction:
    """``base``, raised to the exponent of a ``^`` that follows it.

    The power is refused when the odd generator ``odd`` would carry it,
    or when its expansion may be too large; each step of the expansion
    is charged to the stream's budget at the ``^``.
    """
    op = stream.accept("CARET")
    if op is None:
        return base
    exp_tok = stream.expect("INT", "a nonnegative integer exponent")
    exponent = int(exp_tok.text)
    if odd is not None and exponent > 1:
        raise SemanticError(f"odd generator {format_generator(odd)} cannot carry power {exponent}",
                            exp_tok.line, exp_tok.column)
    if exponent > MAX_EXPONENT:
        raise SemanticError(
            f"exponent {exponent} exceeds {MAX_EXPONENT}", exp_tok.line, exp_tok.column)
    t = max(len(base.terms()), 1)
    bound = comb(exponent + t - 1, t - 1)
    if bound > MAX_POWER_TERMS:
        raise SemanticError(
            f"a {t}-term expression to the power {exponent} may expand to"
            f" {bound} terms, more than {MAX_POWER_TERMS}", exp_tok.line, exp_tok.column)
    out = LocalFunction.one()
    for _ in range(exponent):
        out = stream.multiply(out, base, op)
    return out


def _parse_primary(stream: TokenStream) -> LocalFunction:
    tok = stream.current
    if tok.kind == "INT":
        stream.advance()
        numerator = int(tok.text)
        if stream.accept("SLASH"):
            den_tok = stream.expect("INT", "a denominator")
            denominator = int(den_tok.text)
            if denominator == 0:
                raise SemanticError("zero denominator", den_tok.line, den_tok.column)
            return LocalFunction.constant(Fraction(numerator, denominator))
        return LocalFunction.constant(numerator)
    if tok.kind == "IDENT":
        g = parse_atom(stream)
        return _optional_power(stream, LocalFunction.from_generator(g), g if g.is_odd else None)
    if tok.kind == "LPAREN":
        if stream.depth == MAX_NESTING:
            raise ExpressionSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels", tok.line, tok.column)
        stream.advance()
        stream.depth += 1
        inner = _parse_sum(stream)
        stream.depth -= 1
        stream.expect("RPAREN", "')'")
        return _optional_power(stream, inner)
    got = tok.text or "end of input"
    raise ExpressionSyntaxError(
        f"expected a rational, a generator, or '(', found {got!r}",
        tok.line, tok.column)


def _parse_term(stream: TokenStream) -> LocalFunction:
    value = _parse_primary(stream)
    while op := stream.accept("STAR"):
        value = stream.multiply(value, _parse_primary(stream), op)
    return value


def _parse_sum(stream: TokenStream) -> LocalFunction:
    negate = False
    if stream.accept("MINUS"):
        negate = True
    else:
        stream.accept("PLUS")
    value = _parse_term(stream)
    if negate:
        value = -value
    while True:
        if stream.accept("PLUS"):
            value = value + _parse_term(stream)
        elif stream.accept("MINUS"):
            value = value - _parse_term(stream)
        else:
            return value


def parse_remaining_expression(stream: TokenStream) -> LocalFunction:
    """Parse an expression from the cursor through the end of the stream."""
    value = _parse_sum(stream)
    stream.expect("EOF", "end of input")
    return value


def parse_expression(text: str, first_line: int = 1) -> LocalFunction:
    """Parse one expression; the whole input must be consumed."""
    return parse_remaining_expression(TokenStream(tokenize(text, first_line)))


# ----------------------------------------------------------- printing

def format_generator(g: Generator) -> str:
    if g.jet:
        return f"{g.kind.value}[{g.family}; {' '.join(str(i) for i in g.jet)}]"
    return f"{g.kind.value}[{g.family}]"


def format_signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, body) terms as ``c*body + ... - body``; an empty
    body stands for the bare coefficient, and no terms for ``0``."""
    pieces: list[str] = []
    for c, body in terms:
        magnitude = abs(c)
        if not body:
            text = str(magnitude)
        elif magnitude == 1:
            text = body
        else:
            text = f"{magnitude}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) if pieces else "0"


def _format_factor(g: Generator, e: int) -> str:
    return format_generator(g) if e == 1 else f"{format_generator(g)}^{e}"


def format_local_function(f: LocalFunction) -> str:
    """Render in the canonical order; the output re-parses to ``f``."""
    return format_signed_sum(
        (c, "*".join(_format_factor(g, e) for g, e in factors))
        for factors, c in f.sorted_terms())
