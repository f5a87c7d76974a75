"""Multi-bracket structures encoded in solved actions.

A solved action S determines an odd vector field f -> (S, f) on the space
spanned by the model's generators.  Its Taylor coefficients at the origin
are multilinear brackets: the linear part is a differential, the quadratic
part a binary bracket, and so on.  The master equation (S, S) = 0 turns
into a tower of quadratic identities between those brackets, one for each
arity.  This module extracts the brackets from an action, verifies the
identity tower on abstract structures, and evaluates deformation
residuals order by order in a formal parameter.  The grading is the
physics one: every bracket has degree -1.  A coefficient is an ``int``
when it is integral, so integral brackets compose in integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable, Mapping, Sequence

from .algebra import add_terms, coerce_coefficient, graded_partial, inversion_parity
from .bracket import JetModelUnsupported
from .expr import format_generator
from .master import BVAction

# Most input tuples ``check_linfty`` evaluates in one call.  gl(3) has 18
# basis elements: arity 7 is 480699 tuples, arity 8 is 1562274.
MAX_IDENTITY_TUPLES = 1_000_000


class InsufficientStrata(ValueError):
    """The action is not solved deep enough to trust the requested arity."""


class DegreeMismatch(ValueError):
    """A deformation element has the wrong grading for the structure."""


@dataclass(frozen=True)
class BasisElement:
    """A named basis vector of the graded space carrying the brackets;
    the hash of (name, degree) is computed once, at construction."""

    name: str
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.degree)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __repr__(self) -> str:
        return f"{self.name}:{self.degree}"


class Element:
    """A finite rational linear combination of basis vectors.

    Coefficients must be exact: ints or Fractions.  Anything else, a float
    or a string included, raises ``TypeError``, as it does for
    ``LocalFunction``.  A coefficient is kept as an ``int`` when it is
    integral; ``coefficient`` reads it back as a ``Fraction``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[BasisElement, Fraction] | None = None, *,
                 _internal: bool = False):
        if _internal:
            # the caller hands over a fresh dict of nonzero coefficients, ints when integral
            self._coeffs = coeffs
        else:
            self._coeffs = add_terms({}, ((b, coerce_coefficient(c))
                                         for b, c in (coeffs or {}).items()))

    @classmethod
    def zero(cls) -> "Element":
        return cls({}, _internal=True)

    @classmethod
    def from_basis(cls, b: BasisElement, coefficient=1) -> "Element":
        c = coerce_coefficient(coefficient)
        return cls({b: c} if c else {}, _internal=True)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[BasisElement, Fraction], ...]:
        return tuple(sorted(self._coeffs.items(),
                            key=lambda bc: (bc[0].degree, bc[0].name)))

    def coefficient(self, b: BasisElement) -> Fraction:
        return Fraction(self._coeffs.get(b, 0))

    def support(self) -> tuple[BasisElement, ...]:
        return tuple(b for b, _ in self.items())

    def degrees(self) -> frozenset[int]:
        return frozenset(b.degree for b in self._coeffs)

    def homogeneous_degree(self) -> int | None:
        ds = self.degrees()
        return next(iter(ds)) if len(ds) == 1 else None

    def __add__(self, other: "Element") -> "Element":
        return Element(add_terms(dict(self._coeffs), other._coeffs.items()), _internal=True)

    def __neg__(self) -> "Element":
        return Element({b: -c for b, c in self._coeffs.items()}, _internal=True)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, scalar) -> "Element":
        s = coerce_coefficient(scalar)
        return Element(add_terms({}, ((b, s * c) for b, c in self._coeffs.items())),
                       _internal=True)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Element(0)"
        body = " + ".join(f"{c}*{b.name}" for b, c in self.items())
        return f"Element({body})"


_ZERO = Element.zero()


class LInftyStructure:
    """A graded basis and symmetric multi-brackets l_n, n >= 1.

    ``tensors[n]`` maps canonically ordered input tuples of length n to the
    bracket's value, in degree one below the sum of its inputs' degrees;
    the differential is l_1, on 1-tuples.  Evaluation on any other
    ordering reorders the inputs with the Koszul sign, so a bracket with
    a repeated odd input vanishes.

    The identity residuals of an arity are composed from the tensors once,
    the first time ``identity_residual`` asks for that arity, and kept; a
    structure is not mutated after construction, so they stay valid.
    """

    def __init__(
        self,
        basis: Sequence[BasisElement],
        tensors: Mapping[int, Mapping[Sequence[BasisElement], Element]] | None = None,
    ):
        self.basis = tuple(basis)
        if len({b.name for b in self.basis}) != len(self.basis):
            raise ValueError("basis names must be unique")
        self._index = {b: i for i, b in enumerate(self.basis)}

        self.tensors: dict[int, dict[tuple[BasisElement, ...], Element]] = {}
        for n, tensor in (tensors or {}).items():
            if n < 1:
                raise ValueError(f"brackets start at arity 1, not {n}")
            table: dict[tuple[BasisElement, ...], Element] = {}
            for key, value in tensor.items():
                key = tuple(key)
                if len(key) != n:
                    raise ValueError(f"arity {n} key of length {len(key)}")
                self._check_membership(key, value)
                canon, sign = self._canonical(key)
                value = sign * value
                if canon in table:
                    value = table[canon] + value
                if value.is_zero:
                    table.pop(canon, None)
                    continue
                if any(a == b and a.parity for a, b in zip(canon, canon[1:])):
                    raise ValueError(
                        f"symmetry forces the bracket on {canon} to vanish")
                self._check_degree_law(n, canon, value)
                table[canon] = value
            if table:
                self.tensors[n] = table
        self._identity_tables: dict[int, dict[tuple[BasisElement, ...], Element]] = {}

    # -------------------------------------------------------- plumbing

    def _check_membership(self, key: Iterable[BasisElement], value: Element) -> None:
        for b in itertools.chain(key, value.support()):
            if b not in self._index:
                raise ValueError(f"{b!r} is not a basis element")

    def _check_degree_law(self, n: int, key: tuple[BasisElement, ...],
                          value: Element) -> None:
        expected = sum(b.degree for b in key) - 1
        if any(d != expected for d in value.degrees()):
            raise ValueError(
                f"arity {n} output on {key} must sit in degree {expected}")

    def _canonical(self, tup: tuple[BasisElement, ...]) -> tuple[tuple[BasisElement, ...], int]:
        """``tup`` in basis order, with the Koszul sign of the reordering."""
        keys = list(map(self._index.__getitem__, tup))
        order = sorted(keys)
        if keys == order:
            return tup, 1
        parity = inversion_parity([k for k, b in zip(keys, tup) if b.parity])
        return tuple(map(self.basis.__getitem__, order)), -1 if parity else 1

    # -------------------------------------------------------- evaluation

    def apply(self, n: int, args: Sequence[Element]) -> Element:
        """Evaluate the arity-n bracket multilinearly on elements."""
        if len(args) != n:
            raise ValueError(f"arity {n} bracket applied to {len(args)} inputs")
        table = self.tensors.get(n, {})
        out: dict[BasisElement, Fraction] = {}
        for combo in itertools.product(*(arg._coeffs.items() for arg in args)):
            key, sign = self._canonical(tuple(b for b, _ in combo))
            value = table.get(key)
            if value is None:
                continue
            coeff = sign
            for _, c in combo:
                coeff *= c
            add_terms(out, ((b, coeff * c) for b, c in value._coeffs.items()))
        return Element(out, _internal=True)

    def _identity_table(self, n: int) -> dict[tuple[BasisElement, ...], Element]:
        """The nonzero arity-n identity residuals, keyed by canonical input tuple.

        On a canonical tuple T every unshuffle has canonical blocks, so each
        term is an inner entry (K, v) and the rest R = T - K, composed as
        l_m(v, R) with m = n - k + 1.  The table runs over the compositions
        instead of the tuples: an outer key holding b, with one copy of b
        removed, is a rest that v reaches when b is in its support.  Each
        distinct (inner entry, rest) pair is evaluated once and added to
        T = sorted(K + R), weighted by the signed count of the unshuffles of
        T whose left block is K.  That count has a closed form.  Neither K
        nor R repeats an odd input, so an odd input repeats in T only when it
        sits in both blocks; its two placements then pair off with opposite
        signs, and the weight is 0.  Otherwise every such unshuffle moves the
        distinct odd inputs alike, with the sign of the inversion parity of
        their basis indices in K + R, and they differ only in which copies
        of each input b in both blocks go left: prod over those b of
        C(mult_T(b), mult_K(b)) of them.
        """
        sums: dict[tuple[BasisElement, ...], dict[BasisElement, Fraction]] = {}
        for k in range(1, n + 1):
            m = n - k + 1
            if k not in self.tensors or m not in self.tensors:
                continue
            rests: dict[BasisElement, dict[tuple[BasisElement, ...], None]] = {}
            for key in self.tensors[m]:
                for i, b in enumerate(key):
                    rests.setdefault(b, {})[key[:i] + key[i + 1:]] = None
            for K, v in self.tensors[k].items():
                reached = dict.fromkeys(itertools.chain.from_iterable(
                    rests.get(b, ()) for b in v._coeffs))
                for rest in reached:
                    term = self.apply(m, [v, *map(Element.from_basis, rest)])
                    if term.is_zero:
                        continue
                    T = tuple(sorted(K + rest, key=self._index.__getitem__))
                    both = set(K).intersection(rest)
                    if any(b.parity for b in both):
                        continue
                    weight = prod(comb(T.count(b), K.count(b)) for b in both)
                    if inversion_parity([self._index[b] for b in K + rest if b.parity]):
                        weight = -weight
                    add_terms(sums.setdefault(T, {}),
                              ((b, weight * c) for b, c in term._coeffs.items()))
        table = {T: Element(coeffs, _internal=True) for T, coeffs in sums.items() if coeffs}
        self._identity_tables[n] = table
        return table

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted(self.tensors))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LInftyStructure)
                and self.basis == other.basis
                and self.tensors == other.tensors)

    def __repr__(self) -> str:
        return (f"LInftyStructure(dim={len(self.basis)}, "
                f"arities={self.arities()})")


# ------------------------------------------------------------ extraction

def extract_brackets(S: BVAction, n_max: int) -> LInftyStructure:
    """Read the multi-brackets off a finite-model action.

    The image (S, g) of a generator g is -dR S/dg* for a field or ghost
    and +dR S/dg* for an antifield or antighost, one right partial of S.
    Polarizing a canonical term c z_1^e_1 ... z_k^e_k of degree n at the
    origin gives c times the product of the e_i!, so each term is one
    entry of the arity-n bracket on the key (z_1 repeated e_1 times, ...),
    weighted by (-1)^(n+1).  That weight makes the binary bracket of a
    ghost-cubic action reproduce the structure constants with their
    textbook orientation.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if S.spatial_dim != 0:
        raise JetModelUnsupported("extraction needs a finite model")
    needed = 1 if n_max == 1 else 2
    if S.solved_up_to < needed:
        raise InsufficientStrata(
            f"arity {n_max} needs strata solved through antifield number "
            f"{needed}, have {S.solved_up_to}")

    basis_gens = sorted({h for g in S.total.generators() for h in (g, g.conjugate())})
    to_basis = {g: BasisElement(format_generator(g), g.ghost_number) for g in basis_gens}

    # entries[n][key] holds the coefficients of the output basis elements
    entries: dict[int, dict] = {}
    for g in basis_gens:
        side_sign = 1 if g.antifield_number else -1
        for factors, c in graded_partial(S.total, g.conjugate(), "right").terms():
            n = sum(e for _, e in factors)
            if not 1 <= n <= n_max:
                continue
            weight = side_sign if n % 2 else -side_sign
            key = tuple(to_basis[z] for z, e in factors for _ in range(e))
            entries.setdefault(n, {}).setdefault(key, {})[to_basis[g]] = coerce_coefficient(
                weight * c * prod(factorial(e) for _, e in factors))

    return LInftyStructure(
        basis=tuple(to_basis[g] for g in basis_gens),
        tensors={n: {key: Element(value, _internal=True) for key, value in table.items()}
                 for n, table in entries.items()},
    )


# ------------------------------------------------------------ identities

@dataclass(frozen=True)
class IdentityCheckReport:
    """Residuals of the bracket identities, tuple by tuple."""

    n_max: int
    checked: int
    failures: tuple[tuple[int, tuple[BasisElement, ...], Element], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def identity_residual(L: LInftyStructure, inputs: Sequence[BasisElement]) -> Element:
    """Evaluate the arity-n identity on basis inputs.

    The residual sums, over every splitting of the inputs into a block of
    k and its complement, the (n-k+1)-bracket applied to the k-bracket of
    the block followed by the complement, each splitting weighted by its
    Koszul sign.  k = 1 and k = n reproduce the derivation property of
    the differential; middle values interleave the higher brackets.

    The residual is read off the structure's arity-n table, which composes
    every pair of tensor entries once (``LInftyStructure._identity_table``).
    It is graded symmetric, so inputs out of basis order take the Koszul
    sign of their reordering.  An arity with no nonzero residual returns
    zero without looking at the inputs, and a vanishing residual is one
    shared zero ``Element``: the call allocates nothing.
    """
    table = L._identity_tables.get(len(inputs))
    if table is None:
        table = L._identity_table(len(inputs))
    if not table:
        return _ZERO
    key, sign = L._canonical(tuple(inputs))
    value = table.get(key)
    if value is None:
        return _ZERO
    return value if sign == 1 else -value


def identity_tuple_count(dim: int, n_max: int) -> int:
    """How many input tuples ``check_linfty`` visits: sum of C(dim+n-1, n), n <= n_max."""
    return comb(dim + n_max, n_max) - 1


def check_linfty(L: LInftyStructure, n_max: int) -> IdentityCheckReport:
    """Verify the defining identities through arity n_max.

    Every multiset of basis inputs of size n <= n_max is one call of
    ``identity_residual``, a lookup in the arity-n table of composed
    tensor entries; the compositions without entries vanish identically,
    so the report is that of the full sweep.  The tuple count is
    ``identity_tuple_count(len(L.basis), n_max)``; above
    ``MAX_IDENTITY_TUPLES`` the check raises ``ValueError`` before any
    tuple is evaluated.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    count = identity_tuple_count(len(L.basis), n_max)
    if count > MAX_IDENTITY_TUPLES:
        raise ValueError(
            f"checking through arity {n_max} on {len(L.basis)} basis elements "
            f"needs {count} identity tuples, more than {MAX_IDENTITY_TUPLES}")
    failures = []
    for n in range(1, n_max + 1):
        for tup in itertools.combinations_with_replacement(L.basis, n):
            residual = identity_residual(L, tup)
            if not residual.is_zero:
                failures.append((n, tup, residual))
    return IdentityCheckReport(
        n_max=n_max,
        checked=count,
        failures=tuple(failures),
    )


# ------------------------------------------------------------ deformations

def mc_residual(
    L: LInftyStructure,
    theta: Mapping[int, Element],
    order: int,
) -> dict[int, Element]:
    """Evaluate the deformation residual order by order in the parameter.

    theta maps each power of the formal parameter (from 1) to an element;
    the residual at power m is the t^m coefficient of the sum over n of
    1/n! l_n(theta(t), ..., theta(t)), the brackets evaluated at the point
    theta(t) = sum_p theta_p t^p; n = 1 gives d(theta_m).  Every theta_p
    has one even degree, so the inputs commute: a key with the basis
    element b repeated e_b times is met n!/prod e_b! times among the
    orderings, and contributes its entry times the t^m coefficient of
    prod theta_b(t)^e_b / e_b!, with theta_b(t) = sum_p theta_p[b] t^p.
    The series is silently truncated beyond the requested order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    degrees = set()
    for power, component in theta.items():
        if not isinstance(power, int) or power < 1:
            raise DegreeMismatch("theta powers must be positive integers")
        for b in component.support():
            if b not in L._index:
                raise DegreeMismatch(f"{b!r} is not a basis element")
        if not component.is_zero:
            d = component.homogeneous_degree()
            if d is None:
                raise DegreeMismatch("theta components must be homogeneous")
            degrees.add(d)
    if len(degrees) > 1:
        raise DegreeMismatch("theta components must share one degree")
    if degrees:
        d = next(iter(degrees))
        if d % 2:
            raise DegreeMismatch(
                f"degree {d} elements cannot repeat inside these brackets")

    series: dict[BasisElement, list[Fraction]] = {}
    for power, component in theta.items():
        if power <= order:
            for b, c in component._coeffs.items():
                series.setdefault(b, [0] * (order + 1))[power] = c
    sums: dict[int, dict[BasisElement, Fraction]] = {m: {} for m in range(1, order + 1)}
    for n, table in L.tensors.items():
        if n > order:
            continue  # theta(t) starts at t^1, so l_n starts at t^n
        for key, value in table.items():
            if not all(b in series for b in key):
                continue
            # the key's monomial in theta(t), each power of theta_b over e_b!
            monomial = [1] + [0] * order
            for b, run in itertools.groupby(key):
                e = len(tuple(run))
                for _ in range(e):
                    monomial = [sum(monomial[i] * series[b][m - i] for i in range(m + 1))
                                for m in range(order + 1)]
                monomial = [c * Fraction(1, factorial(e)) for c in monomial]
            for m in range(n, order + 1):
                if monomial[m]:
                    add_terms(sums[m], ((b, monomial[m] * c) for b, c in value._coeffs.items()))
    return {m: Element(coeffs, _internal=True) for m, coeffs in sums.items()}
