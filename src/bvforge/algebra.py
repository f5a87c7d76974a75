"""Graded-commutative polynomial algebra over jet-space generators.

The coordinate ring is generated by five kinds of symbols:

* base coordinates  ``x[i]``        bidegree (0, 0)
* fields            ``u[a; I]``     bidegree (0, 0)
* antifields        ``ustar[a; I]`` bidegree (0, 1)
* ghosts            ``C[al; I]``    bidegree (1, 0)
* antighosts        ``Cstar[al; I]`` bidegree (0, 2)

where ``I`` is a symmetric multi-index (a sorted tuple of spatial
directions, each >= 1) recording repeated total derivatives.  The
bidegree (p, q) assigns ghost degree p and antighost degree q; the
total degree is p - q and the parity is (p - q) mod 2.  Generators
commute or anticommute according to their parities, odd generators
square to zero, and every product is kept in a canonical form: the
factors of each monomial are sorted by a fixed total order on
generators and the Koszul sign of the sorting permutation is absorbed
into the rational coefficient.  A generator is the tuple of its place
in that order and is made once, so factors and terms sort as plain
tuples and two generators are equal only when they are one object.

A coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a float.  Explicit
dependence on the base coordinates is polynomial, so base coordinates
are ordinary even generators here.  Every sparse sum in the package,
of local functions, of bracket values and of solver rows, goes through
the one helper ``add_terms``.

A term is a (factors, coefficient) pair.  ``term_bidegree`` reads its
grading, and ``inversion_parity`` signs every sort of a term or of
bracket inputs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import ItemsView, Iterable, Mapping, NamedTuple, Sequence


class GeneratorKind(Enum):
    BASE = "x"
    FIELD = "u"
    ANTIFIELD = "ustar"
    GHOST = "C"
    ANTIGHOST = "Cstar"

    @property
    def rank(self) -> int:
        return list(GeneratorKind).index(self)  # the term order ranks kinds as listed


_KIND_BIDEGREE = {
    GeneratorKind.BASE: (0, 0),
    GeneratorKind.FIELD: (0, 0),
    GeneratorKind.ANTIFIELD: (0, 1),
    GeneratorKind.GHOST: (1, 0),
    GeneratorKind.ANTIGHOST: (0, 2),
}

_CONJUGATE_KIND = {
    GeneratorKind.FIELD: GeneratorKind.ANTIFIELD,
    GeneratorKind.ANTIFIELD: GeneratorKind.FIELD,
    GeneratorKind.GHOST: GeneratorKind.ANTIGHOST,
    GeneratorKind.ANTIGHOST: GeneratorKind.GHOST,
}


class Bidegree(NamedTuple):
    ghost: int
    antighost: int

    @property
    def total(self) -> int:
        return self.ghost - self.antighost

    @property
    def parity(self) -> int:
        return self.total % 2


# Every generator made so far, keyed by (kind, family, jet) as given and sorted.
_GENERATORS: dict[tuple, "Generator"] = {}


class Generator(tuple):
    """A single coordinate symbol, possibly carrying a jet multi-index.

    ``family`` is the label of the field/ghost family (or the spatial
    direction for a base coordinate, as a string).  ``jet`` is kept
    sorted, since total derivatives commute.  ``Generator(kind, family,
    jet)`` returns the one object made for that symbol, and no attribute
    can be set.  The value is its place in the term order: (kind rank,
    code points of family, -1, len(jet), *jet), so ``"1"`` sorts before
    ``"10"`` and ``"#12"`` before ``"3"``, as ``str`` does.  It fixes the
    symbol, so generators are equal only when identical (a plain tuple of
    the value would equal one too; the package makes none), and
    ``tuple``'s own equality, order and hash run in C, the hash the same
    under every PYTHONHASHSEED.  A tuple takes no slots, so the other
    attributes sit in the instance dict, set when it is made;
    ``unprolonged`` is the generator of the family with no jet, and
    ``prolonged(i)`` the next one along direction i, each made once and
    then kept.
    """

    def __new__(cls, kind: GeneratorKind, family: str, jet: Iterable[int] = ()) -> "Generator":
        jet = tuple(jet)
        try:
            return _GENERATORS[kind, family, jet]
        except (KeyError, TypeError):  # not made yet, or unhashable input refused below
            pass
        if not isinstance(family, str) or not family:
            raise ValueError("generator family must be a nonempty string")
        if any((not isinstance(i, int)) or i < 1 for i in jet):
            raise ValueError("jet indices must be integers >= 1")
        if kind is GeneratorKind.BASE and jet:
            raise ValueError("base coordinates carry no jet index")
        ordered = tuple(sorted(jet))
        if ordered != jet:
            return _GENERATORS.setdefault((kind, family, jet), cls(kind, family, ordered))
        self = tuple.__new__(cls, (kind.rank, *map(ord, family), -1, len(jet), *jet))
        b = Bidegree(*_KIND_BIDEGREE[kind])
        vars(self).update(kind=kind, family=family, jet=jet, bidegree=b, parity=b.parity,
                          is_odd=b.parity == 1, ghost_number=b.total, antifield_number=b.antighost,
                          unprolonged=cls(kind, family) if jet else self, _prolonged={})
        _GENERATORS[kind, family, jet] = self
        return self

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a generator is shared and cannot change its {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy or a pickle is the one shared object
        return Generator, (self.kind, self.family, self.jet)

    def __repr__(self) -> str:
        return f"Generator(kind={self.kind!r}, family={self.family!r}, jet={self.jet!r})"

    def conjugate(self) -> "Generator":
        """The antibracket partner: u <-> ustar, C <-> Cstar (same family, same jet)."""
        kind = _CONJUGATE_KIND.get(self.kind)
        if kind is None:
            raise ValueError("base coordinates have no conjugate")
        return Generator(kind, self.family, self.jet)

    def prolonged(self, i: int) -> "Generator":
        """The generator with direction i appended to the jet."""
        h = self._prolonged.get(i)
        if h is None:
            h = self._prolonged[i] = Generator(self.kind, self.family, self.jet + (i,))
        return h


def base(i: int) -> Generator:
    return Generator(GeneratorKind.BASE, str(i))


def field(family: str, jet: Iterable[int] = ()) -> Generator:
    return Generator(GeneratorKind.FIELD, family, jet)


def antifield(family: str, jet: Iterable[int] = ()) -> Generator:
    return Generator(GeneratorKind.ANTIFIELD, family, jet)


def ghost(family: str, jet: Iterable[int] = ()) -> Generator:
    return Generator(GeneratorKind.GHOST, family, jet)


def antighost(family: str, jet: Iterable[int] = ()) -> Generator:
    return Generator(GeneratorKind.ANTIGHOST, family, jet)


Factors = tuple[tuple[Generator, int], ...]
Term = tuple[Factors, Fraction]

_VANISHING: Term = ((), 0)


def term_bidegree(factors: Factors) -> Bidegree:
    """The bidegree of a term with these factors."""
    p = q = 0
    for g, e in factors:
        p += g.bidegree.ghost * e
        q += g.bidegree.antighost * e
    return Bidegree(p, q)


def inversion_parity(keys: Sequence) -> int:
    """Parity (0 or 1) of the pairs i < j with keys[i] > keys[j].

    Equal keys never count.  The Koszul sign of sorting a sequence is
    the inversion parity of its odd entries.  ``normalize`` passes the
    odd generators themselves, which compare in the term order, and
    ``LInftyStructure._canonical`` and the identity weights of
    ``LInftyStructure._identity_table`` pass basis indices.
    """
    inversions = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] > keys[j]:
                inversions += 1
    return inversions % 2


def normalize(term: Term) -> Term:
    """Canonical form: factors sorted, Koszul sign absorbed into the coefficient.

    A term in which an odd generator repeats vanishes: it comes back as
    the empty product with coefficient 0.  Moving an even generator past
    anything costs no sign, so the Koszul sign is the inversion parity of
    the subsequence of odd generators.
    """
    factors, coefficient = term
    if coefficient == 0:
        return _VANISHING
    odd = []
    merged: dict[Generator, int] = {}
    for g, e in factors:
        if e < 0:
            raise ValueError("negative exponents are not part of the algebra")
        if e == 0:
            continue
        if g.parity:
            if e > 1 or g in merged:
                return _VANISHING
            odd.append(g)
        merged[g] = merged.get(g, 0) + e
    if inversion_parity(odd):
        coefficient = -coefficient
    return tuple(sorted(merged.items())), coefficient


def add_terms(data: dict, pairs: Iterable[tuple[object, Fraction]]) -> dict:
    """Add (key, coefficient) pairs into ``data`` in place and return it.

    A zero coefficient never enters and a key whose coefficient sums to
    zero is dropped, so ``data`` holds exactly the nonzero sums, each an
    ``int`` when it is integral.
    """
    get = data.get
    for key, c in pairs:
        old = get(key)
        if old is not None:
            c = old + c
        if c:
            data[key] = c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        elif old is not None:
            del data[key]
    return data


def _canonical_terms(terms: Iterable[Term]) -> dict[Factors, Fraction]:
    """The sum of ``terms``, each brought to canonical form."""
    return add_terms({}, map(normalize, terms))


def coerce_coefficient(value) -> int | Fraction:
    """An exact rational coefficient: an ``int`` (a bool too) when it is integral and
    a ``Fraction`` otherwise; floats and the rest raise TypeError."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class LocalFunction:
    """A finite rational linear combination of canonical monomials.

    Instances behave as immutable values: all arithmetic returns new
    objects, equality is structural, and the term order is the fixed
    deterministic order used everywhere (reports, solvers, printing).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Factors, Fraction] | None = None, *, _internal: bool = False):
        if _internal:
            # the caller hands over a fresh dict of canonical nonzero terms
            self._terms = terms or {}
        else:
            self._terms = _canonical_terms(
                (tuple(f), coerce_coefficient(c)) for f, c in (terms or {}).items())

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LocalFunction":
        return cls({}, _internal=True)

    @classmethod
    def constant(cls, value) -> "LocalFunction":
        c = coerce_coefficient(value)
        return cls({(): c} if c else None, _internal=True)

    @classmethod
    def one(cls) -> "LocalFunction":
        return cls.constant(1)

    @classmethod
    def from_generator(cls, g: Generator) -> "LocalFunction":
        return cls({((g, 1),): 1}, _internal=True)

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "LocalFunction":
        """The sum of (factors, coefficient) pairs, in any order and any form."""
        return cls(_canonical_terms(terms), _internal=True)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> tuple[Term, ...]:
        """The (factors, coefficient) pairs in the canonical term order."""
        return tuple(sorted(self._terms.items()))

    def terms(self) -> ItemsView[Factors, Fraction]:
        """The (factors, coefficient) pairs, in no particular order."""
        return self._terms.items()

    def coefficient(self, factors: Factors) -> int | Fraction:  # the int 0 when absent
        return self._terms.get(tuple(factors), 0)

    def constant_term(self) -> int | Fraction:
        return self._terms.get((), 0)

    def generators(self) -> set[Generator]:
        return {g for factors in self._terms for g, _ in factors}

    def max_jet_order(self) -> int:
        orders = [len(g.jet) for f in self._terms for g, _ in f]
        return max(orders, default=0)

    def bidegree(self) -> Bidegree | None:
        """The common bidegree of all terms, or None if mixed or zero."""
        return _only({term_bidegree(f) for f in self._terms})

    def parity(self) -> int | None:
        return _only({term_bidegree(f).parity for f in self._terms})

    def ghost_number(self) -> int | None:
        return _only({term_bidegree(f).total for f in self._terms})

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "LocalFunction":
        other = _as_local_function(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of((self, other))

    __radd__ = __add__

    def __neg__(self) -> "LocalFunction":
        return LocalFunction({f: -c for f, c in self._terms.items()}, _internal=True)

    def __sub__(self, other) -> "LocalFunction":
        other = _as_local_function(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LocalFunction":
        other = _as_local_function(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LocalFunction":
        if isinstance(other, (int, Fraction)):
            c = coerce_coefficient(other)
            return LocalFunction(add_terms({}, ((f, k * c) for f, k in self._terms.items())),
                                 _internal=True)
        if not isinstance(other, LocalFunction):
            return NotImplemented
        right = other._terms.items()
        return LocalFunction.from_terms(
            (f1 + f2, c1 * c2) for f1, c1 in self._terms.items() for f2, c2 in right)

    __rmul__ = __mul__  # reached only for a scalar on the left, and scalars are even

    def __pow__(self, n: int) -> "LocalFunction":
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = LocalFunction.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = _as_local_function(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LocalFunction(0)"
        parts = []
        for factors, c in self.sorted_terms()[:4]:
            parts.append(f"{c}*{'*'.join(g.kind.value + str(g.family) + str(list(g.jet)) + ('^' + str(e) if e > 1 else '') for g, e in factors) or '1'}")
        more = " + ..." if len(self._terms) > 4 else ""
        return f"LocalFunction({' + '.join(parts)}{more})"


def _only(values: set):
    """The one element of ``values``, or None when it has none or several."""
    return values.pop() if len(values) == 1 else None


def _as_local_function(value) -> "LocalFunction":
    if isinstance(value, LocalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return LocalFunction.constant(value)
    return NotImplemented


def sum_of(fs: Iterable[LocalFunction]) -> LocalFunction:
    """The sum of local functions, accumulated into one dict."""
    data: dict[Factors, Fraction] = {}
    for f in fs:
        if data:
            add_terms(data, f._terms.items())
        else:
            data = dict(f._terms)
    return LocalFunction(data, _internal=True)


def gen(g: Generator) -> LocalFunction:
    """Shorthand used throughout: the local function consisting of one generator."""
    return LocalFunction.from_generator(g)


def graded_partial(f: LocalFunction, z: Generator, side: str = "left") -> LocalFunction:
    """Graded partial derivative of ``f`` with respect to the generator ``z``.

    The left derivative strips ``z`` from the front of each monomial:
    moving an odd ``z`` to the front past a prefix of total parity s
    costs (-1)^s.  The right derivative is obtained monomial-wise from
    the left one through

        dR f / dz = (-1)^((|f| + |z|) |z|) dL f / dz

    with |f| the parity of the monomial.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    data: dict[Factors, Fraction] = {}
    zp = z.parity
    for factors, coeff in f._terms.items():
        prefix_parity = 0
        for pos, (g, e) in enumerate(factors):
            if g is z:
                new = factors[:pos] + ((g, e - 1),) * (e > 1) + factors[pos + 1:]
                c = coerce_coefficient(coeff * e) if e > 1 else coeff
                if zp:
                    if prefix_parity % 2:
                        c = -c
                    if side == "right" and not term_bidegree(factors).parity:
                        # (|f| + |z|) |z| is odd when the term is even
                        c = -c
                # stripping one z is injective on canonical monomials, so
                # no two terms meet and every c is nonzero
                data[new] = c
                break
            prefix_parity += g.parity * e
    return LocalFunction(data, _internal=True)


def decompose_by_antifield_number(f: LocalFunction) -> dict[int, LocalFunction]:
    """Split ``f`` into strata of fixed total antighost degree, in ascending order."""
    buckets: dict[int, dict[Factors, Fraction]] = {}
    for factors, coeff in f._terms.items():
        buckets.setdefault(term_bidegree(factors).antighost, {})[factors] = coeff
    return {k: LocalFunction(terms, _internal=True) for k, terms in sorted(buckets.items())}
