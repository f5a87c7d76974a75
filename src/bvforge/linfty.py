"""Multi-bracket structures encoded in solved actions.

A solved action S determines an odd vector field f -> (S, f) on the space
spanned by the model's generators.  Its Taylor coefficients at the origin
are multilinear brackets: the linear part is a differential, the quadratic
part a binary bracket, and so on.  The master equation (S, S) = 0 turns
into a tower of quadratic identities between those brackets, one for each
arity.  This module extracts the brackets from an action, verifies the
identity tower on abstract structures, evaluates deformation residuals
order by order in a formal parameter, and converts between the two common
grading conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import _coerce_coefficient, add_terms, graded_partial, inversion_parity
from .bracket import JetModelUnsupported
from .expr import format_generator
from .master import BVAction

PHYSICS = "physics"
MATH = "math"

# Most input tuples ``check_linfty`` evaluates in one call.  gl(3) has 18
# basis elements: arity 7 is 480699 tuples, arity 8 is 1562274.
MAX_IDENTITY_TUPLES = 1_000_000


class InsufficientStrata(ValueError):
    """The action is not solved deep enough to trust the requested arity."""


class DegreeMismatch(ValueError):
    """A deformation element has the wrong grading for the structure."""


@dataclass(frozen=True)
class BasisElement:
    """A named basis vector of the graded space carrying the brackets."""

    name: str
    degree: int

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __repr__(self) -> str:
        return f"{self.name}:{self.degree}"


class Element:
    """A finite rational linear combination of basis vectors.

    Coefficients must be exact: ints or Fractions.  Anything else, a float
    or a string included, raises ``TypeError``, as it does for
    ``LocalFunction``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[BasisElement, Fraction] | None = None, *,
                 _internal: bool = False):
        if _internal:
            # the caller hands over a fresh dict of nonzero Fractions
            self._coeffs = coeffs
        else:
            self._coeffs = add_terms({}, ((b, _coerce_coefficient(c))
                                         for b, c in (coeffs or {}).items()))

    @classmethod
    def zero(cls) -> "Element":
        return cls({}, _internal=True)

    @classmethod
    def from_basis(cls, b: BasisElement, coefficient=1) -> "Element":
        c = _coerce_coefficient(coefficient)
        return cls({b: c} if c else {}, _internal=True)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[BasisElement, Fraction], ...]:
        return tuple(sorted(self._coeffs.items(),
                            key=lambda bc: (bc[0].degree, bc[0].name)))

    def coefficient(self, b: BasisElement) -> Fraction:
        return self._coeffs.get(b, Fraction(0))

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
        s = _coerce_coefficient(scalar)
        return Element({b: s * c for b, c in self._coeffs.items()} if s else {},
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


def unshuffles(parities: Sequence[int], k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield the monotone (k, n-k) splittings of positions with Koszul signs.

    The sign is that of reordering the positions ``left + right`` back to
    ascending order: the inversion parity of their odd entries.
    """
    n = len(parities)
    odd = [i for i in range(n) if parities[i] % 2]
    for left in itertools.combinations(range(n), k):
        right = tuple(i for i in range(n) if i not in left)
        flips = len(odd) > 1 and inversion_parity([i for i in left + right if i in odd])
        yield left, right, -1 if flips else 1


class LInftyStructure:
    """A graded basis and symmetric multi-brackets l_n, n >= 1.

    ``tensors[n]`` maps canonically ordered input tuples of length n to the
    bracket's value; the differential is l_1, on 1-tuples.  Evaluation on
    any other ordering reorders the inputs with the sign rule of the
    structure's convention (Koszul for the physics grading, Koszul times a
    transposition sign for the mathematics grading).
    """

    def __init__(
        self,
        basis: Sequence[BasisElement],
        tensors: Mapping[int, Mapping[Sequence[BasisElement], Element]] | None = None,
        convention: str = PHYSICS,
    ):
        if convention not in (PHYSICS, MATH):
            raise ValueError(f"unknown convention {convention!r}")
        self.convention = convention
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
                if any(a == b and self._repeat_vanishes(a.degree)
                       for a, b in zip(canon, canon[1:])):
                    raise ValueError(
                        f"symmetry forces the bracket on {canon} to vanish")
                self._check_degree_law(n, canon, value)
                table[canon] = value
            if table:
                self.tensors[n] = table

    # -------------------------------------------------------- plumbing

    def _check_membership(self, key: Iterable[BasisElement], value: Element) -> None:
        for b in itertools.chain(key, value.support()):
            if b not in self._index:
                raise ValueError(f"{b!r} is not a basis element")

    def bracket_degree(self, n: int) -> int:
        """The degree shift of the arity-n bracket."""
        return -1 if self.convention == PHYSICS else 2 - n

    def _check_degree_law(self, n: int, key: tuple[BasisElement, ...],
                          value: Element) -> None:
        expected = sum(b.degree for b in key) + self.bracket_degree(n)
        if any(d != expected for d in value.degrees()):
            raise ValueError(
                f"arity {n} output on {key} must sit in degree {expected}")

    def _repeat_vanishes(self, degree: int) -> bool:
        """Whether symmetry kills a bracket with a repeated input of this degree:
        an odd one in the physics grading, an even one in the mathematics one."""
        return bool(degree % 2) == (self.convention == PHYSICS)

    def _canonical(self, tup: tuple[BasisElement, ...]) -> tuple[tuple[BasisElement, ...], int]:
        """``tup`` in basis order, with its reordering sign: the Koszul sign,
        times one transposition sign per inversion in the mathematics grading."""
        keys = list(map(self._index.__getitem__, tup))
        order = sorted(keys)
        if keys == order:
            return tup, 1
        parity = inversion_parity([k for k, b in zip(keys, tup) if b.parity])
        if self.convention == MATH:
            parity += inversion_parity(keys)
        return tuple(map(self.basis.__getitem__, order)), -1 if parity % 2 else 1

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
            coeff = Fraction(sign)
            for _, c in combo:
                coeff *= c
            add_terms(out, ((b, coeff * c) for b, c in value._coeffs.items()))
        return Element(out, _internal=True)

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted(self.tensors))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LInftyStructure)
                and self.convention == other.convention
                and self.basis == other.basis
                and self.tensors == other.tensors)

    def __repr__(self) -> str:
        return (f"LInftyStructure(dim={len(self.basis)}, "
                f"arities={self.arities()}, convention={self.convention!r})")


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
            entries.setdefault(n, {}).setdefault(key, {})[to_basis[g]] = (
                weight * c * prod(factorial(e) for _, e in factors))

    return LInftyStructure(
        basis=tuple(to_basis[g] for g in basis_gens),
        tensors={n: {key: Element(value, _internal=True) for key, value in table.items()}
                 for n, table in entries.items()},
        convention=PHYSICS,
    )


# ------------------------------------------------------------ identities

@dataclass(frozen=True)
class IdentityCheckReport:
    """Residuals of the bracket identities, tuple by tuple."""

    n_max: int
    checked: int
    failures: tuple[tuple[int, tuple[BasisElement, ...], Element], ...]
    jacobi_checked: int
    jacobi_failures: tuple[tuple[tuple[BasisElement, ...], Element], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def jacobi_passed(self) -> bool:
        return not self.jacobi_failures


def identity_residual(L: LInftyStructure, inputs: Sequence[BasisElement]) -> Element:
    """Evaluate the arity-n identity on basis inputs, physics convention.

    The residual sums, over every splitting of the inputs into a block of
    k and its complement, the (n-k+1)-bracket applied to the k-bracket of
    the block followed by the complement, each splitting weighted by its
    Koszul sign.  k = 1 and k = n reproduce the derivation property of
    the differential; middle values interleave the higher brackets.

    Only the compositions the structure can make nonzero are evaluated.
    The k-blocks are visited only when arity k and arity n - k + 1 both
    carry a tensor, and a block whose canonical key has no entry in the
    arity-k tensor is passed over.  Every term left out is a bracket taken
    where the structure has no entry, so it is exactly zero and the
    residual is the same as the sum over every splitting.  On basis
    inputs the inner bracket is the tensor entry of the block's canonical
    key times its reordering sign, read off without calling ``apply``.
    """
    n = len(inputs)
    residual = Element.zero()
    for k in range(1, n + 1):
        if k not in L.tensors or n - k + 1 not in L.tensors:
            continue
        inner_table = L.tensors[k]
        for left, right, sign in unshuffles([b.parity for b in inputs], k):
            key, key_sign = L._canonical(tuple(inputs[i] for i in left))
            inner = inner_table.get(key)
            if inner is None:
                continue
            outer_args = ([inner if key_sign == 1 else -inner]
                          + [Element.from_basis(inputs[j]) for j in right])
            term = L.apply(n - k + 1, outer_args)
            if not term.is_zero:
                residual = residual + sign * term
    return residual


def identity_tuple_count(dim: int, n_max: int) -> int:
    """How many input tuples ``check_linfty`` visits: sum of C(dim+n-1, n), n <= n_max."""
    return comb(dim + n_max, n_max) - 1


def check_linfty(L: LInftyStructure, n_max: int) -> IdentityCheckReport:
    """Verify the defining identities through arity n_max.

    Structures in the mathematics convention are converted to the physics
    grading first; the report then refers to the converted tensors.

    Every multiset of basis inputs of size n <= n_max is one call of
    ``identity_residual``, which evaluates only the bracket compositions
    that have tensor entries; the others vanish identically, so the
    report is that of the full sweep.  The tuple count is
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
    if L.convention == MATH:
        L = convert_conventions(L)
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
        jacobi_checked=comb(len(L.basis) + 2, 3) if n_max >= 3 else 0,
        jacobi_failures=tuple((tup, r) for n, tup, r in failures if n == 3),
    )


# ------------------------------------------------------------ conversion

def _suspension_sign(key: Sequence[BasisElement], physics_degrees: Sequence[int]) -> int:
    n = len(key)
    exponent = sum((n - 1 - i) * physics_degrees[i] for i in range(n))
    return -1 if exponent % 2 else 1


def convert_conventions(L: LInftyStructure) -> LInftyStructure:
    """Reflect the grading and re-sign the tensors; an exact involution.

    Degrees map as d -> 1 - d, so the uniform physics bracket degree -1
    becomes the arity-dependent value 2 - n, and vice versa.  Tensor
    entries pick up the standard suspension sign built from the physics
    degrees of their inputs.
    """
    to_physics = L.convention == MATH
    mapping = {b: BasisElement(b.name, 1 - b.degree) for b in L.basis}

    tensors: dict[int, dict[tuple[BasisElement, ...], Element]] = {}
    for n, tensor in L.tensors.items():
        table = {}
        for key, value in tensor.items():
            phys_degrees = [1 - b.degree if to_physics else b.degree for b in key]
            sign = _suspension_sign(key, phys_degrees)
            table[tuple(mapping[b] for b in key)] = sign * Element(
                {mapping[o]: c for o, c in value.items()})
        tensors[n] = table

    return LInftyStructure(
        basis=tuple(mapping[b] for b in L.basis),
        tensors=tensors,
        convention=PHYSICS if to_physics else MATH,
    )


# ------------------------------------------------------------ deformations

def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def mc_residual(
    L: LInftyStructure,
    theta: Mapping[int, Element],
    order: int,
) -> dict[int, Element]:
    """Evaluate the deformation residual order by order in the parameter.

    theta maps each power of the formal parameter (from 1) to an element;
    the residual at power m collects 1/n! times every arity-n bracket of
    components whose powers sum to m; n = 1 gives d(theta_m).  The series
    is silently truncated beyond the requested order.
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
        if L._repeat_vanishes(d):
            raise DegreeMismatch(
                f"degree {d} elements cannot repeat inside these brackets")

    out: dict[int, Element] = {}
    for m in range(1, order + 1):
        residual = Element.zero()
        for n in range(1, m + 1):
            if n not in L.tensors:
                continue
            acc = Element.zero()
            for powers in _compositions(m, n):
                args = [theta.get(p) for p in powers]
                if any(a is None or a.is_zero for a in args):
                    continue
                acc = acc + L.apply(n, args)
            if not acc.is_zero:
                residual = residual + Fraction(1, factorial(n)) * acc
        out[m] = residual
    return out
