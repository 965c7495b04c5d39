"""The numerical incidence coalgebra of a decomposition space.

All weights are exact rationals obtained as homotopy-fiber cardinalities.
The comultiplication of an edge f is the weighted decomposition of the
fiber of d_1 : X_2 -> X_1 over f into (d_2, d_0)-labelled components; the
counit is the fiber cardinality of s_0; convolution is dual to the
comultiplication.  The Phi functors count simplices with all principal
edges nondegenerate; every length is read off one histogram per class,
which the space's Phi count returns for the longest length asked.  The
Mobius functional is the alternating sum Phi_even - Phi_odd of that
histogram, which requires a vanishing certificate (the grade of the
argument on graded spaces, or an explicit length bound).

A decomposition is held in the format of the fiber table it is read
from: `comultiply` returns the mapping {(left class, right class):
weight} of `weighted_fiber`, in the table's source-class order, and no
value is ordered by `repr`.  It is computed once per class of X_1 and
memoised on X as a read-only mapping, as `bicomodule.coact` is, so the
two convolutions of `verify_inversion` read one Delta.  Convolution is
one sum over such a table, `_pair_sum`, which the convolution actions of
`bicomodule` read on the coaction tables too.  It adds machine integers
while a term's weight and both values are integral, as they all are on
a nerve, and Fractions otherwise; its result is a Fraction.
`verify_inversion` checks every class of X_1, and its `InversionReport`
also carries the comodule inversion rows of
`bicomodule.comodule_mobius_check`.

Callers are expected to have validated the decomposition-space axioms at
their chosen truncation; the operations here check carriers and level
availability, not the axioms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Optional

from .groupoid import DomainError, FiniteGroupoid, Memo, fiber_cardinality, weighted_fiber
from .simplicial import TruncatedSimplicialGroupoid


class CarrierMismatchError(DomainError):
    """Two functionals (or a functional and a space) disagree on carriers."""


class MobiusCertificateError(Exception):
    """No certificate that the Phi functors vanish beyond a finite length.

    Computing a Mobius functional needs the locally-finite-length
    hypothesis: on a graded space the grade of the argument certifies the
    bound, otherwise the caller must supply one explicitly.
    """


class Functional(Memo):
    """A rational functional on the iso-classes of a carrier groupoid.

    Backed by a total evaluation rule, called on class representatives
    only; its value is memoized per iso class, so the rule need only be
    defined on representatives.
    """

    def __init__(self, carrier: FiniteGroupoid, fn: Callable, name: str = ""):
        super().__init__()
        self.carrier = carrier
        self._fn = fn
        self.name = name

    def __call__(self, obj) -> Fraction:
        rep = self.carrier.iso_classes().class_of(obj)
        value = self._memo.get(("at", rep))
        if value is None:
            value = self._fn(rep)
            if type(value) is not Fraction:
                value = Fraction(value)
            self._memo["at", rep] = value
        return value

    @classmethod
    def constant(cls, carrier, value, name=""):
        v = Fraction(value)
        return cls(carrier, lambda rep: v, name=name)


def _require_class(X: TruncatedSimplicialGroupoid, f):
    carrier = X.level(1)
    if not carrier.has_object(f):
        raise DomainError(f"{f!r} is not an object of the level-1 carrier")
    return carrier.iso_classes().class_of(f)


def comultiply(X: TruncatedSimplicialGroupoid, f) -> MappingProxyType:
    """Delta(f): weighted (d_2, d_0)-decomposition of the d_1-fiber over f,
    as {(left class, right class): weight} in fiber-table order, memoised
    per class on X and read-only.

    The weight of a term is the cardinality of the corresponding part of
    the homotopy fiber, i.e. |Aut f| / |Aut sigma| summed over the
    contributing classes of 2-simplices.
    """
    rep = _require_class(X, f)
    delta_f = X._memo.get(("comultiply", rep))
    if delta_f is None:
        tab1 = X.level(1).iso_classes()
        d2, d0 = X.face(2, 2), X.face(2, 0)
        label = lambda r: (tab1.class_of(d2.ob(r)), tab1.class_of(d0.ob(r)))
        delta_f = X._memo["comultiply", rep] = MappingProxyType(
            weighted_fiber(X.face(2, 1), rep, label))
    return delta_f


def counit(X: TruncatedSimplicialGroupoid, f) -> Fraction:
    """delta(f): the cardinality of the s_0-fiber over f."""
    _require_class(X, f)
    return fiber_cardinality(X.degeneracy(0, 0), f)


def zeta(X: TruncatedSimplicialGroupoid) -> Functional:
    return Functional.constant(X.level(1), 1, name="zeta")


def delta(X: TruncatedSimplicialGroupoid) -> Functional:
    return Functional(X.level(1), lambda rep: counit(X, rep), name="delta")


def _pair_sum(table, left: Callable, right: Callable) -> Fraction:
    """sum of w * left(l) * right(r) over a fiber table {(l, r): w}, in
    table order: Delta and both coactions convolve through this sum.

    A term whose three factors are integers (denominator 1, as every
    weight, zeta and mu value on a nerve is) is added as a machine int;
    the other terms go into a Fraction sum.  The exact total is the same
    in any order, and is returned as a Fraction."""
    ints, rest = 0, Fraction(0)
    for (l, r), w in table.items():
        x, y = left(l), right(r)
        if w.denominator == 1 and x.denominator == 1 and y.denominator == 1:
            ints += w.numerator * x.numerator * y.numerator
        else:
            rest += w * x * y
    return rest + ints if rest else Fraction(ints)


def convolve(X: TruncatedSimplicialGroupoid, alpha: Functional, beta: Functional) -> Functional:
    """(alpha * beta)(f) = sum over Delta(f) of weight * alpha(l) * beta(r)."""
    carrier = X.level(1)
    for func in (alpha, beta):
        if func.carrier is not carrier:
            raise CarrierMismatchError(
                f"functional {func.name or '<anon>'} lives on a different carrier")
    return Functional(carrier, lambda rep: _pair_sum(comultiply(X, rep), alpha, beta),
                      name=f"({alpha.name}*{beta.name})")


def phi_n(X: TruncatedSimplicialGroupoid, f, n: int) -> Fraction:
    """|Phi_n|(f): cardinality of the fiber of d_1^{n-1} over f restricted
    to simplices with all principal edges nondegenerate.

    Phi_0 is the counit-style fiber through the s_0-image, Phi_1(f) is 1
    exactly when f itself is nondegenerate.

    For n >= 1 the value is entry n of the Phi histogram of f's class:
    the number of simplices of each length over the class representative
    that X's Phi count returns, to the longest length asked for that
    class so far.
    The long edge d_1^{k-1} is the identity on labels there, so each
    strict fiber is discrete and has the homotopy fiber's cardinality.
    A space without a Phi count, an incomplete space and an n beyond the
    truncation are refused, in that order.
    """
    if n < 0:
        raise DomainError("phi_n needs n >= 0")
    rep = _require_class(X, f)
    if n == 0:
        return counit(X, f)
    return Fraction(_phi_histogram(X, rep, n)[n])


def _phi_histogram(X: TruncatedSimplicialGroupoid, rep, n: int) -> list:
    """[0, Phi_1, ..., Phi_m] at the class representative rep, for the
    longest length m >= n asked so far, as X's Phi count returns it for
    length m, memoised on X; only a longer n counts again.  A count to
    length n must be possible."""
    X.check_phi_count(n)
    counts = X._memo.get(("phi", rep))
    if counts is None or len(counts) <= n:
        counts = X._memo["phi", rep] = X._phi_fn(X, n, rep)
    return counts


def grade_certificate(carrier: FiniteGroupoid, f, length_bound: Optional[int]) -> int:
    """Resolve a vanishing bound for the Phi functors at an object f of
    their carrier (X_1, or C_0 for a comodule), or refuse: a negative
    bound is a domain error, and an ungraded carrier needs a bound."""
    if length_bound is not None:
        if length_bound < 0:
            raise DomainError(f"the length bound must be >= 0, got {length_bound}")
        return length_bound
    if carrier.is_graded():
        return carrier.grade(carrier.iso_classes().class_of(f))
    raise MobiusCertificateError(
        "cannot certify locally finite length: the space is ungraded and no "
        "length bound was supplied")


def mobius(X: TruncatedSimplicialGroupoid, f, length_bound: Optional[int] = None) -> Fraction:
    """|mu|(f) = sum_{n <= bound} (-1)^n |Phi_n|(f): the counit plus the
    alternating sum of f's Phi histogram up to the bound.

    The bound certifies phi_n(X, f, n) = 0 for n beyond it; graded spaces
    certify it by grade(f) (each nondegenerate layer carries grade >= 1).
    Bound 0 needs no Phi count; a bound beyond the truncation is refused
    after the Phi-count and completeness checks.
    """
    bound = grade_certificate(X.level(1), f, length_bound)
    if bound == 0:
        return counit(X, f)
    counts = _phi_histogram(X, _require_class(X, f), bound)
    return counit(X, f) + sum((-1) ** k * counts[k] for k in range(1, bound + 1))


def mobius_functional(X: TruncatedSimplicialGroupoid,
                      length_bound: Optional[int] = None) -> Functional:
    return Functional(X.level(1), lambda rep: mobius(X, rep, length_bound), name="mu")


@dataclass
class InversionRow:
    cls: object
    zeta_mu: Fraction
    delta_value: Fraction
    mu_zeta: Fraction

    @property
    def passed(self) -> bool:
        return self.zeta_mu == self.delta_value == self.mu_zeta


@dataclass
class InversionReport:
    """The rows of an inversion check, one per class: `InversionRow`s of
    `verify_inversion`, or the comodule rows of `comodule_mobius_check`,
    whose side the report names."""

    rows: list
    side: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.passed]

    def __bool__(self):
        return self.passed


def verify_inversion(X: TruncatedSimplicialGroupoid,
                     length_bound: Optional[int] = None,
                     mu: Optional[Functional] = None) -> InversionReport:
    """Check (zeta * mu)(f) = delta(f) = (mu * zeta)(f) on every class of X_1.

    `mu` defaults to the Mobius functional of X; passing a corrupted
    functional turns this into a negative control.
    """
    z = zeta(X)
    if mu is None:
        mu = mobius_functional(X, length_bound)
    zm = convolve(X, z, mu)
    mz = convolve(X, mu, z)
    return InversionReport([InversionRow(c, zm(c), counit(X, c), mz(c))
                            for c in X.level(1).iso_classes().reps])
