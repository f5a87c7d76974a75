"""Variational calculus on local functions and gauge-model descriptions.

This module provides the jet-space differential operators (prolongation,
total derivatives, Euler-Lagrange derivatives, and the Euler operators of
every family of a function at once), the functional projection that the
master-equation residual and the lift read on every model (a finite
model is the dimension-zero case, with no divergences), the monomial
ansatz, and the model-level Noether identity check.  A prolonged
generator, and the unprolonged one that names a family, is the one
object ``algebra`` makes for that symbol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Sequence

from .algebra import (
    Factors,
    Generator,
    GeneratorKind,
    LocalFunction,
    add_terms,
    base,
    coerce_coefficient,
    field,
    graded_partial,
    sum_of,
)


class BaseCoordinateProlongation(ValueError):
    """Base coordinates carry no jet index; they cannot be prolonged."""


class IndexOutOfRange(ValueError):
    """A spatial direction outside 1..n was used."""


def _check_direction(i: int, spatial_dim: int | None) -> None:
    if not isinstance(i, int) or i < 1:
        raise IndexOutOfRange(f"spatial directions start at 1, got {i}")
    if spatial_dim is not None and i > spatial_dim:
        raise IndexOutOfRange(f"direction {i} exceeds dimension {spatial_dim}")


def prolong(g: Generator, i: int, spatial_dim: int | None = None) -> Generator:
    """Append one total-derivative direction to a generator's multi-index."""
    if g.kind is GeneratorKind.BASE:
        raise BaseCoordinateProlongation(f"cannot prolong base coordinate {g}")
    _check_direction(i, spatial_dim)
    return g.prolonged(i)


def total_derivative(f: LocalFunction, i: int, spatial_dim: int | None = None) -> LocalFunction:
    """The total derivative D_i, an even derivation of the jet algebra.

    D_i x^j is the Kronecker delta and D_i z_I = z_{Ii} on every
    non-base generator.  Each canonical monomial is differentiated by
    the Leibniz rule, factor by factor: x_i^e gives e x_i^(e-1), and
    z_J^e gives e times the monomial with one z_J replaced by z_{Ji}.
    Prolongation preserves parity and sorts z_{Ji} after z_J, so the only
    sign is the Koszul sign of moving an odd z_{Ji} past the odd factors
    between the two places, and an odd z_{Ji} already present kills the
    term.
    """
    _check_direction(i, spatial_dim)
    x_i = str(i)
    return LocalFunction(add_terms({}, (
        term for factors, c in f.terms() for term in _leibniz_terms(factors, c, i, x_i))),
        _internal=True)


def _leibniz_terms(factors: Factors, c: Fraction, i: int, x_i: str):
    """The canonical terms of D_i on the term c * factors."""
    n = len(factors)
    for pos, (g, e) in enumerate(factors):
        if e > 1:
            head, ce = factors[:pos] + ((g, e - 1),), c * e
        else:
            head, ce = factors[:pos], c
        if g.kind is GeneratorKind.BASE:
            if g.family == x_i:
                yield head + factors[pos + 1:], ce
            continue
        h = g.prolonged(i)
        odd = g.parity
        sign = False
        j = pos + 1
        while j < n and factors[j][0] < h:
            if odd and factors[j][0].parity:
                sign = not sign
            j += 1
        if j < n and factors[j][0] is h:
            if odd:
                continue
            new = head + factors[pos + 1:j] + ((h, factors[j][1] + 1),) + factors[j + 1:]
        else:
            new = head + factors[pos + 1:j] + ((h, 1),) + factors[j:]
        yield new, -ce if sign else ce


def total_derivative_multi(
    f: LocalFunction, jet: Sequence[int], spatial_dim: int | None = None
) -> LocalFunction:
    """D_I for a multi-index I (total derivatives commute, order is free)."""
    out = f
    for i in jet:
        out = total_derivative(out, i, spatial_dim)
    return out


def euler_derivatives(f: LocalFunction) -> dict[Generator, LocalFunction]:
    """Every nonzero left Euler derivative of f, keyed by the unprolonged
    generator of its family, in the generator order; base coordinates
    are not differentiated.

    One walk over the terms of f takes every left graded partial df/dz_J
    of every family at once, with the sign of ``graded_partial``: an odd
    z_J costs the parity of the factors before it.  Each partial also
    takes the sign (-1)^|J| of its (-D)_J, and each family is folded by
    ``_fold``.
    """
    partials: dict[Generator, dict[tuple[int, ...], dict[Factors, Fraction]]] = {}
    for factors, c in f.terms():
        odd_before = False
        for pos, (g, e) in enumerate(factors):
            if g.kind is GeneratorKind.BASE:
                continue
            if e > 1:
                new = factors[:pos] + ((g, e - 1),) + factors[pos + 1:]
                ce = coerce_coefficient(c * e)
            else:
                new, ce = factors[:pos] + factors[pos + 1:], c
            negate = len(g.jet) % 2
            if g.parity:
                negate ^= odd_before
                odd_before = not odd_before
            # stripping one z_J is injective on canonical monomials
            partials.setdefault(g.unprolonged, {}).setdefault(g.jet, {})[new] = -ce if negate else ce
    out = {}
    for z in sorted(partials):
        e = _fold(partials[z])
        if e:
            out[z] = e
    return out


def variational_derivative(
    f: LocalFunction, z: Generator, side: str = "left"
) -> LocalFunction:
    """The Euler operator of the family of z: sum of (-D)_I d/dz_I.

    ``z`` names the family through its kind and family label; its own
    multi-index must be empty.  The family's partials, one
    ``graded_partial`` per generator of it in f, go through the fold that
    ``euler_derivatives`` uses; the right side is taken only here.
    """
    if z.jet:
        raise ValueError("variational derivatives are taken per family; pass the unprolonged generator")
    partials = {}
    for g in f.generators():
        if g.kind is z.kind and g.family == z.family:
            partial = graded_partial(f, g, side)
            partials[g.jet] = dict((-partial if len(g.jet) % 2 else partial).terms())
    return _fold(partials)


def _fold(partials: dict[tuple[int, ...], dict[Factors, Fraction]]) -> LocalFunction:
    """E_z f = Q_() from the signed partials P_J = (-1)^|J| df/dz_J of one
    family, keyed by J.

    Q_J = P_J + sum over i >= max J of D_i Q_{J+i}, from the longest J
    down.  A sorted J + i has the one parent J, so every node is
    differentiated once, after the sums that meet at it have merged.
    Each image D_i Q_{J+i}, a fresh dict, meets its parent's sum by adding
    the smaller into the larger.  The term dicts in ``partials`` are
    consumed.
    """
    levels: list[dict[tuple[int, ...], dict[Factors, Fraction]]] = [
        {} for _ in range(max(map(len, partials), default=0) + 1)]
    for jet, terms in partials.items():
        levels[len(jet)][jet] = terms
    for order in range(len(levels) - 1, 0, -1):
        parents = levels[order - 1]
        for jet, terms in levels[order].items():
            if terms:
                image = total_derivative(LocalFunction(terms, _internal=True), jet[-1])._terms
                parent = parents.get(jet[:-1], {})
                big, small = (parent, image) if len(parent) > len(image) else (image, parent)
                parents[jet[:-1]] = add_terms(big, small.items())
    return LocalFunction(levels[0].get((), {}), _internal=True)


def euler_lagrange(f: LocalFunction, a: str) -> LocalFunction:
    """Euler-Lagrange derivative with respect to the field family ``a``."""
    return variational_derivative(f, field(a), "left")


def functional_parts(f: LocalFunction, spatial_dim: int) -> dict:
    """The nonzero parts that decide f as a functional, over its full
    generator content; f vanishes as a functional exactly when it has
    none.  At spatial dimension zero there are no divergences, so the one
    part is f itself, keyed by ``()``; above, the parts are the Euler
    derivatives of f, keyed by family."""
    if spatial_dim == 0:
        return {} if f.is_zero else {(): f}
    return euler_derivatives(f)


def families(*fs: LocalFunction) -> list[Generator]:
    """One unprolonged generator per (kind, family) present in the fs,
    base coordinates excluded, in the generator order."""
    return sorted({g.unprolonged for f in fs for g in f.generators()
                   if g.kind is not GeneratorKind.BASE})


def all_multi_indices(spatial_dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All sorted multi-indices with entries in 1..n and length <= p."""
    out: list[tuple[int, ...]] = []
    for r in range(max_order + 1):
        out.extend(itertools.combinations_with_replacement(range(1, spatial_dim + 1), r))
    return out


def enumerate_basis_monomials(
    pool: Sequence[Generator],
    max_degree: int,
    bidegree: tuple[int, int] | None = None,
) -> list[LocalFunction]:
    """Canonical monomials of total degree <= max_degree over a generator pool.

    With ``bidegree`` = (ghost degree, antighost degree) only the
    monomials of exactly that bidegree are produced.  Every generator
    has one of four bidegrees: (0, 0) for base coordinates and fields,
    (0, 1) for the odd antifields, (1, 0) for the odd ghosts and (0, 2)
    for the even antighosts.  So a monomial of bidegree (p, a + 2c) is
    a choice of p distinct ghosts, a distinct antifields, c antighosts
    and r >= 0 even factors of bidegree (0, 0), of degree p + a + c + r;
    ``master.lift_candidate_count`` counts the same choices in closed
    form.  The four classes follow the generator order, so each choice
    lists its factors in canonical form with Koszul sign +1 and is built
    without ``normalize``.

    The order is ascending degree, then lexicographic in the index
    sequence over the sorted pool within a degree: the order of
    ``itertools.combinations_with_replacement``.  Callers rely on it,
    since it fixes the pivot columns of every coefficient-matching
    system built over the list.
    """
    ordered = sorted(set(pool))
    even, antifields, ghosts, antighosts = (
        [i for i, g in enumerate(ordered) if g.bidegree == b] for b in ((0, 0), (0, 1), (1, 0), (0, 2)))
    if bidegree is None:
        shapes = itertools.product(range(max_degree + 1), repeat=3)
    else:
        p, q = bidegree
        shapes = ((p, q - 2 * c, c) for c in range(q // 2 + 1) if p >= 0)
    sequences = [
        sum(parts, ())
        for p, a, c in shapes
        for r in range(max_degree - p - a - c + 1)
        for parts in itertools.product(
            itertools.combinations_with_replacement(even, r), itertools.combinations(antifields, a),
            itertools.combinations(ghosts, p), itertools.combinations_with_replacement(antighosts, c))]
    sequences.sort(key=lambda s: (len(s), s))
    return [LocalFunction({tuple((ordered[i], s.count(i)) for i in dict.fromkeys(s)): 1},
                          _internal=True) for s in sequences]


# ------------------------------------------------------------------ models

def check_unique_labels(labels: Sequence[str], kind: str) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate {kind} identifiers")


def check_field_label(name: str, fields: Collection[str]) -> None:
    if name not in fields:
        raise ValueError(f"unknown field family {name!r}")


def check_jet_order(order: int, bound: int | None) -> None:  # None is no bound
    if bound is not None and order > bound:
        raise ValueError(f"jet order {order} exceeds bound {bound}")


@dataclass(frozen=True)
class ModelNames:
    """The labels and ranges that model data may use, and the one check of
    each, raising ``ValueError`` in the words a model document reports.
    ``ModelSpec`` prefixes them with the entry's name, and the parser
    gives them the entry's position.  The labels are sets, so a label
    costs one lookup; a jet bound of None is no bound."""

    dimension: int
    fields: frozenset[str]
    gauge: frozenset[str]
    max_jet_order: int | None = None

    def direction(self, i: int) -> None:
        _check_direction(i, self.dimension)

    def field_label(self, name: str) -> None:
        check_field_label(name, self.fields)

    def gauge_label(self, name: str) -> None:
        if name not in self.gauge:
            raise ValueError(f"unknown gauge index {name!r}")

    def jet(self, jet: Sequence[int]) -> None:
        for i in jet:
            self.direction(i)
        check_jet_order(len(jet), self.max_jet_order)

    def field_sector(self, f: LocalFunction) -> None:
        for g in sorted(f.generators()):  # a refusal does not depend on the hash seed
            if g.kind is GeneratorKind.BASE:
                self.direction(int(g.family) if g.family.isdecimal() else g.family)
            elif g.kind is GeneratorKind.FIELD:
                self.field_label(g.family)
                self.jet(g.jet)
            else:
                raise ValueError(f"{g.kind.value} atoms do not belong in the field sector")


@dataclass(frozen=True)
class ModelTable:
    """A table of model entries, the one record of it that ``ModelSpec``,
    the document parser and printer, and the CLI read.

    ``attr`` is the ``ModelSpec`` attribute it fills and ``name`` names an
    entry in a ``ModelSpec`` refusal.  ``section`` is its section of a
    model document, whose entries read ``head[k1, k2, ...; jet] = value``,
    and ``noun`` names an entry in the duplicate refusal.  ``slots`` checks
    each key label, ``jet`` says whether the key ends in a multi-index,
    and ``pairs`` are the key slot pairs the entries are antisymmetric in.
    An empty table prints when ``print_empty`` is set: an empty
    ``structure`` or ``closure`` section declares a closed algebra, while
    an empty ``generators`` section declares nothing.
    """

    attr: str
    name: str
    section: str
    head: str
    noun: str
    slots: tuple[Callable[[ModelNames, str], None], ...]
    jet: bool = False
    pairs: tuple[tuple[int, int], ...] = ()
    print_empty: bool = False

    @cached_property
    def _swaps(self) -> tuple[tuple[itemgetter, int], ...]:
        """Getters of the key with each set of n pairs swapped, and (-1)^n; none swapped first."""
        out = [(tuple(range(len(self.slots) + self.jet)), 1)]
        for i, j in self.pairs:  # i < j
            out += [(k[:i] + (k[j],) + k[i + 1:j] + (k[i],) + k[j + 1:], -sign) for k, sign in out]
        return tuple((itemgetter(*k), sign) for k, sign in out)

    def lookup(self, entries: dict, key: tuple) -> LocalFunction:
        """The value at ``key`` that the entries imply by antisymmetry."""
        for swap, sign in self._swaps:
            if swap(key) in entries:
                return sign * entries[swap(key)]
        return LocalFunction.zero()

    def check_value(self, names: ModelNames, earlier: dict, key: tuple, value: LocalFunction) -> None:
        """Refuse a value outside the field sector, a nonzero diagonal entry, and
        one that disagrees with an earlier entry (not ``key``) under any swaps."""
        names.field_sector(value)
        for i, j in self.pairs:
            if key[i] == key[j] and not value.is_zero:
                raise ValueError("a diagonal entry must vanish")
        for swap, sign in self._swaps[1:]:
            partner = earlier.get(swap(key))
            if partner is not None and partner != sign * value:
                raise ValueError(f"entries {swap(key)} and {key} are not antisymmetric")


GAUGE_COEFFICIENTS = ModelTable("gauge_coefficients", "gauge coefficient", "generators", "r", "generator",
                                (ModelNames.field_label, ModelNames.gauge_label), jet=True)
STRUCTURE_FUNCTIONS = ModelTable("structure_functions", "structure function", "structure", "c", "structure",
                                 (ModelNames.gauge_label,) * 3, pairs=((1, 2),), print_empty=True)
CLOSURE_FUNCTIONS = ModelTable("closure_functions", "closure function", "closure", "nu", "closure",
                               (ModelNames.field_label,) * 2 + (ModelNames.gauge_label,) * 2,
                               pairs=((0, 1), (2, 3)), print_empty=True)
MODEL_TABLES = (GAUGE_COEFFICIENTS, STRUCTURE_FUNCTIONS, CLOSURE_FUNCTIONS)


@dataclass
class ModelSpec:
    """A gauge-theory description over an n-dimensional base.

    ``gauge_coefficients`` holds the operator coefficients r of the
    transformations delta u^a = sum_I r^{aI}_alpha D_I epsilon^alpha,
    keyed by (field, gauge index, multi-index).  The optional structure
    functions c are keyed (gamma, alpha, beta) and are antisymmetric in
    the last two slots; the optional on-shell closure functions nu are
    keyed (a, b, alpha, beta) and are antisymmetric in (a, b) and in
    (alpha, beta) separately.  ``max_jet_order`` and ``max_poly_degree``
    bound every monomial ansatz built from this model.  The lagrangian
    and each entry, in order, pass the checks of ``ModelNames`` with no
    jet bound and of their ``ModelTable``, or a ValueError names it.
    """

    spatial_dim: int
    fields: tuple[str, ...]
    gauge_indices: tuple[str, ...]
    lagrangian: LocalFunction
    gauge_coefficients: dict[tuple[str, str, tuple[int, ...]], LocalFunction] = dataclass_field(
        default_factory=dict)
    structure_functions: dict[tuple[str, str, str], LocalFunction] | None = None
    closure_functions: dict[tuple[str, str, str, str], LocalFunction] | None = None
    max_jet_order: int = 3
    max_poly_degree: int = 4

    def __post_init__(self) -> None:
        if self.spatial_dim < 0:
            raise ValueError("spatial dimension must be >= 0")
        self.fields = tuple(self.fields)
        self.gauge_indices = tuple(self.gauge_indices)
        check_unique_labels(self.fields, "field")
        check_unique_labels(self.gauge_indices, "gauge")
        if self.max_jet_order < 0 or self.max_poly_degree < 0:
            raise ValueError("ansatz bounds must be >= 0")
        names = ModelNames(self.spatial_dim, frozenset(self.fields), frozenset(self.gauge_indices))
        table = key = None
        try:
            names.field_sector(self.lagrangian)
            for table in MODEL_TABLES:
                earlier: dict[tuple, LocalFunction] = {}
                for key, value in (getattr(self, table.attr) or {}).items():
                    labels = key[:-1] if table.jet else key
                    if len(labels) != len(table.slots):
                        raise ValueError(f"the key needs {len(table.slots) + table.jet} entries")
                    for check, label in zip(table.slots, labels):
                        check(names, label)
                    names.jet(key[-1] if table.jet else ())
                    table.check_value(names, earlier, key, value)
                    earlier[key] = value
        except ValueError as err:
            what = "lagrangian" if key is None else f"{table.name} {key}"
            raise ValueError(f"{what}: {err}") from None
        self.gauge_coefficients = {(a, alpha, tuple(sorted(jet))): coeff
                                   for (a, alpha, jet), coeff in self.gauge_coefficients.items()
                                   if not coeff.is_zero}

    # -- lookup with implied antisymmetry --

    def gauge_coefficient(self, a: str, alpha: str, jet: tuple[int, ...]) -> LocalFunction:
        return self.gauge_coefficients.get((a, alpha, tuple(sorted(jet))), LocalFunction.zero())

    def structure_function(self, gamma: str, alpha: str, beta: str) -> LocalFunction:
        return STRUCTURE_FUNCTIONS.lookup(self.structure_functions or {}, (gamma, alpha, beta))

    def closure_function(self, a: str, b: str, alpha: str, beta: str) -> LocalFunction:
        return CLOSURE_FUNCTIONS.lookup(self.closure_functions or {}, (a, b, alpha, beta))

    def gauge_multi_indices(self, a: str, alpha: str) -> list[tuple[int, ...]]:
        return sorted(jet for (f, g, jet) in self.gauge_coefficients if f == a and g == alpha)

    def field_jet_pool(self) -> list[Generator]:
        """Base coordinates and prolonged fields inside the ansatz bounds."""
        pool: list[Generator] = [base(i) for i in range(1, self.spatial_dim + 1)]
        for a in self.fields:
            for jet in all_multi_indices(self.spatial_dim, self.max_jet_order):
                pool.append(field(a, jet))
        return pool


@dataclass(frozen=True)
class NoetherReport:
    """Per-identity residuals of the Noether check; all_pass iff all vanish."""

    per_identity_residual: dict[str, LocalFunction]

    @property
    def all_pass(self) -> bool:
        return all(r.is_zero for r in self.per_identity_residual.values())


def check_noether(m: ModelSpec) -> NoetherReport:
    """Verify the differential relations among the equations of motion.

    For each gauge index alpha the residual is the adjoint of the gauge
    operator applied to the equations of motion, the local function
    sum over (a, I) of (-D)_I (r^{aI}_alpha E_a(L)); the identities hold
    exactly when every residual is the zero element.
    """
    el = {a: euler_lagrange(m.lagrangian, a) for a in m.fields}
    residuals: dict[str, LocalFunction] = {}
    for alpha in m.gauge_indices:
        residuals[alpha] = sum_of(
            (-1) ** len(jet) * total_derivative_multi(
                m.gauge_coefficient(a, alpha, jet) * el[a], jet, m.spatial_dim)
            for a in m.fields for jet in m.gauge_multi_indices(a, alpha))
    return NoetherReport(per_identity_residual=residuals)

