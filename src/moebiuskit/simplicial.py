"""Truncated simplicial finite groupoids and their axiom checkers.

A `TruncatedSimplicialGroupoid` stores levels 0..max_level of finite
groupoids together with face and degeneracy functors, produced lazily by
generator callbacks and memoized.  On graded spaces every level object
carries a grade (for the layered instances: the number of elements) and
levels are generated under a common grade bound; pullback checks restrict
the iso-comma side to the same bound, so reports speak of axioms verified
at the stated truncation, never globally.

Checks provided: strict simplicial identities, the Segal squares, the four
square families of the decomposition-space condition, completeness
(the bottom degeneracy is a monomorphism), and culf-ness of simplicial
maps (cartesian naturality squares on codegeneracies and inner cofaces).
The degenerate edge classes, the essential image of s_0, are the key set
of the fiber table of s_0 that the completeness check builds.  A space
may count its own Phi fibers (`phi_fn`), one histogram of every length
per call, which `incidence.phi_n` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    Memo,
    SquareResult,
    _fiber_table,
    full_subgroupoid,
    functors_equal,
    is_monomorphism,
    is_pullback_square,
)


class InsufficientLevelsError(DomainError):
    """The requested check needs levels beyond the stored truncation."""

    def __init__(self, needed: int, available: int, what: str = ""):
        self.needed = needed
        self.available = available
        msg = f"insufficient levels: need level {needed}, truncated at {available}"
        if what:
            msg += f" (for {what})"
        super().__init__(msg)


class TruncatedSimplicialGroupoid(Memo):
    """Levels X_0..X_N of finite groupoids with faces d_i and degeneracies s_i.

    The generator callbacks receive the space itself, so a face functor can
    look up its (memoized) source and target levels:

        level_fn(space, n)      -> FiniteGroupoid
        face_fn(space, n, i)    -> GroupoidFunctor level n -> n-1,  0 <= i <= n
        degen_fn(space, n, i)   -> GroupoidFunctor level n -> n+1,  0 <= i <= n

    A space may also supply a Phi count,

        phi_fn(space, n, f)     -> [0, Phi_1, ..., Phi_n], n >= 1,

    the number of k-simplices sigma, for each 1 <= k <= n, with every
    principal edge nondegenerate and inner-face composite d_1^{k-1}
    sending sigma to the level-1 object f on the nose.  The contract is
    that this composite is the identity on morphism labels, so each
    strict fiber is discrete and its size is the homotopy-fiber
    cardinality over f; `incidence.phi_n` reads the sizes of all lengths
    off one call to the truncation.  The space counts as it likes: a
    nerve walks its chains, the layered spaces count chains of up-sets
    without listing them.

    Levels, operators and the values derived from them (face powers,
    degenerate edge classes, completeness, Phi histograms, reference word
    groupoids) live in the space's `_memo`.  Only valid indices are ever
    stored, so a hit needs no range check.
    """

    def __init__(self, max_level: int, level_fn, face_fn, degen_fn,
                 grade_bound: Optional[int] = None, phi_fn=None, name: str = ""):
        if max_level < 1:
            raise DomainError("a truncated simplicial groupoid needs max_level >= 1")
        super().__init__()
        self.max_level = max_level
        self._level_fn = level_fn
        self._face_fn = face_fn
        self._degen_fn = degen_fn
        self._phi_fn = phi_fn
        self.grade_bound = grade_bound
        self.name = name

    def level(self, n: int) -> FiniteGroupoid:
        G = self._memo.get(("level", n))
        if G is None:
            if n < 0:
                raise DomainError(f"no level {n}")
            if n > self.max_level:
                raise InsufficientLevelsError(n, self.max_level, self.name)
            G = self._get(("level", n), self._level_fn, self, n)
        return G

    def face(self, n: int, i: int) -> GroupoidFunctor:
        F = self._memo.get(("face", n, i))
        if F is None:
            if not (1 <= n <= self.max_level and 0 <= i <= n):
                raise DomainError(f"no face d_{i} at level {n}")
            F = self._get(("face", n, i), self._face_fn, self, n, i)
        return F

    def degeneracy(self, n: int, i: int) -> GroupoidFunctor:
        F = self._memo.get(("degeneracy", n, i))
        if F is None:
            if n + 1 > self.max_level:
                raise InsufficientLevelsError(n + 1, self.max_level, self.name)
            if not (0 <= i <= n):
                raise DomainError(f"no degeneracy s_{i} at level {n}")
            F = self._get(("degeneracy", n, i), self._degen_fn, self, n, i)
        return F

    def check_phi_count(self, n: int) -> None:
        """Refuse a Phi count to length n on a space without a count, on
        an incomplete space and beyond the truncation, in that order."""
        if self._phi_fn is None:
            raise DomainError(f"{self.name or 'the space'} has no Phi count")
        _require_complete(self)
        if n > self.max_level:
            raise InsufficientLevelsError(n, self.max_level, self.name)
        if n < 1:
            raise DomainError("the Phi count needs n >= 1")

    # -- derived accessors -------------------------------------------------

    def bottom_face_power(self, n: int, k: int) -> GroupoidFunctor:
        """(d_0)^k : level n -> level n-k, one composite per (n, k)."""
        return self._get(("face_power", n, k, False), self._face_power, n, k, False)

    def top_face_power(self, n: int, k: int) -> GroupoidFunctor:
        """d_top^k : level n -> level n-k, one composite per (n, k)."""
        return self._get(("face_power", n, k, True), self._face_power, n, k, True)

    def _face_power(self, n: int, k: int, top: bool) -> GroupoidFunctor:
        F = GroupoidFunctor.identity(self.level(n))
        for m in range(n, n - k, -1):
            F = GroupoidFunctor.compose(self.face(m, m if top else 0), F)
        return F

    def principal_edge(self, n: int, sigma, i: int):
        """The i-th principal edge (1-based) of an n-simplex, in level 1,
        through the composite of outer face maps."""
        if not 1 <= i <= n:
            raise DomainError(f"principal edge index {i} out of range 1..{n}")
        obj = sigma
        for m in range(n, i, -1):      # delete top vertices down to level i
            obj = self.face(m, m).ob(obj)
        for m in range(i, 1, -1):      # delete bottom vertices down to level 1
            obj = self.face(m, 0).ob(obj)
        return obj

    def degenerate_edge_classes(self) -> frozenset:
        """Iso classes of level-1 objects in the essential image of s_0:
        the keys of the fiber table of s_0."""
        return self._get(("degenerate_edges",), self._degenerate_edge_classes)

    def _degenerate_edge_classes(self) -> frozenset:
        return frozenset(_fiber_table(self.degeneracy(0, 0)))

    def is_complete(self) -> bool:
        return self._get(("complete",), is_monomorphism, self.degeneracy(0, 0))


@dataclass
class WordGroupoid:
    """The full subgroupoid X_w of level len(w) selected by a word.

    Letters constrain the principal edges: '0' forces the edge into the
    essential image of s_0, 'a' forces it out, '1' leaves it free.
    """

    base: TruncatedSimplicialGroupoid
    word: str
    groupoid: FiniteGroupoid


def word_groupoid(X: TruncatedSimplicialGroupoid, word: str) -> WordGroupoid:
    """X_w, memoised on X: the whole-level reference route, which no library
    code calls; the tests check the Phi routes against it."""
    if any(c not in "01a" for c in word):
        raise DomainError(f"word {word!r} not over alphabet 0/1/a")
    return X._get(("word", word), _build_word_groupoid, X, word)


def _build_word_groupoid(X: TruncatedSimplicialGroupoid, word: str) -> WordGroupoid:
    n = len(word)
    level = X.level(n)
    if n == 0:
        return WordGroupoid(X, word, level)
    degen = X.degenerate_edge_classes()
    tab = X.level(1).iso_classes()
    keep = [sigma for sigma in level.objects
            if all(letter == "1"
                   or (letter == "0") == (tab.class_of(X.principal_edge(n, sigma, i)) in degen)
                   for i, letter in enumerate(word, start=1))]
    return WordGroupoid(X, word, full_subgroupoid(level, keep, name=f"X_{word}"))


def _require_complete(X: TruncatedSimplicialGroupoid) -> None:
    if not X.is_complete():
        raise DomainError("space is not complete: s_0 is not a monomorphism")


# -- simplicial maps ---------------------------------------------------------


class SimplicialMap(Memo):
    """A strictly simplicial map between truncated simplicial groupoids."""

    def __init__(self, source, target, level_fn, name: str = ""):
        super().__init__()
        self.source = source
        self.target = target
        self._level_fn = level_fn    # (map, n) -> GroupoidFunctor
        self.name = name

    @property
    def max_level(self) -> int:
        return min(self.source.max_level, self.target.max_level)

    def level_map(self, n: int) -> GroupoidFunctor:
        if n < 0:
            raise DomainError(f"no level map at level {n}")
        if n > self.max_level:
            raise InsufficientLevelsError(n, self.max_level, self.name)
        return self._get(("level", n), self._level_fn, self, n)

    def validate(self, n_max: Optional[int] = None) -> None:
        """Check strict commutation with all faces and degeneracies."""
        top = self.max_level if n_max is None else min(n_max, self.max_level)
        for n in range(1, top + 1):
            for i in range(n + 1):
                lhs = GroupoidFunctor.compose(self.target.face(n, i), self.level_map(n))
                rhs = GroupoidFunctor.compose(self.level_map(n - 1), self.source.face(n, i))
                if not functors_equal(lhs, rhs):
                    raise DomainError(f"map does not commute with d_{i} at level {n}")
        for n in range(0, top):
            for i in range(n + 1):
                lhs = GroupoidFunctor.compose(self.target.degeneracy(n, i), self.level_map(n))
                rhs = GroupoidFunctor.compose(self.level_map(n + 1), self.source.degeneracy(n, i))
                if not functors_equal(lhs, rhs):
                    raise DomainError(f"map does not commute with s_{i} at level {n}")


# -- axiom reports ------------------------------------------------------------


def _least_n_max(profile: str) -> Optional[int]:
    """The n_max below which a profile would verify nothing, if it takes one."""
    return {"identities": 1, "segal": 1, "decomposition": 0}.get(profile)


def _range_note(what: str, top: int, needed: int, available: int) -> str:
    """The verified range n = 0..top of a square family, or the level it needs."""
    if top < 0:
        return f"{what} none checked (need level {needed}, truncated at {available})"
    return f"{what} n = 0..{top}"


@dataclass
class AxiomReport:
    """Outcome of check_axioms / is_culf: one entry per square instance."""

    profile: str
    checks: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __bool__(self):
        return self.passed

    def lines(self):
        out = [f"profile {self.profile}: {'PASS' if self.passed else 'FAIL'}"]
        if self.note:
            out.append(f"  verified range: {self.note}")
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            out.append(f"  [{mark}] {c.name}")
            if not c.passed and c.witness:
                out.append(f"         witness: {c.witness}")
        return out


def check_axioms(X: TruncatedSimplicialGroupoid, profile: str, n_max: int) -> AxiomReport:
    """Verify an axiom profile at the stated truncation.

    Profiles:
      identities    -- strict simplicial identities (and grade additivity
                       when the space is graded),
      segal         -- Segal squares for 1 <= n <= n_max,
      decomposition -- the four active/inert square families for
                       0 <= n <= n_max, 0 <= k <= n; the coface families
                       reach level n+3 and are checked for as many n as the
                       truncation allows, with the verified range recorded
                       (none, and the level they need, below level 3),
      complete      -- s_0 : X_0 -> X_1 is a monomorphism.

    An n_max below a profile's least truncation, `_least_n_max`: 1 for
    identities and segal and 0 for decomposition, would verify nothing and
    is refused; complete ignores n_max.
    """
    least = _least_n_max(profile)
    if least is not None and n_max < least:
        raise DomainError(f"the {profile} profile needs n_max >= {least}, got {n_max}")
    gb = X.grade_bound
    if profile == "identities":
        return _check_identities(X, n_max)

    if profile == "complete":
        report = AxiomReport(profile="complete")
        ok = X.is_complete()
        report.checks.append(SquareResult(ok, None if ok else
                                          "s_0 has a non-contractible nonempty fiber",
                                          name="s_0 monomorphism"))
        return report

    if profile == "segal":
        if n_max + 1 > X.max_level:
            raise InsufficientLevelsError(n_max + 1, X.max_level, "segal profile")
        report = AxiomReport(profile="segal", note=f"n = 1..{n_max}")
        for n in range(1, n_max + 1):
            report.checks.append(is_pullback_square(
                p=X.face(n + 1, n + 1), q=X.face(n + 1, 0),
                f=X.face(n, 0), g=X.face(n, n),
                grade_bound=gb, name=f"segal square n={n}"))
        return report

    if profile == "decomposition":
        if n_max + 2 > X.max_level:
            raise InsufficientLevelsError(n_max + 2, X.max_level,
                                          "decomposition profile")
        d_n_max = min(n_max, X.max_level - 3)
        report = AxiomReport(
            profile="decomposition",
            note=(f"degeneracy families n = 0..{n_max}; "
                  + _range_note("coface families", d_n_max, 3, X.max_level)))
        for n in range(0, n_max + 1):
            for k in range(0, n + 1):
                report.checks.append(is_pullback_square(
                    p=X.face(n + 1, 0), q=X.degeneracy(n + 1, k + 1),
                    f=X.degeneracy(n, k), g=X.face(n + 2, 0),
                    grade_bound=gb, name=f"s_{k + 1}/d_bot square n={n}"))
                report.checks.append(is_pullback_square(
                    p=X.face(n + 1, n + 1), q=X.degeneracy(n + 1, k),
                    f=X.degeneracy(n, k), g=X.face(n + 2, n + 2),
                    grade_bound=gb, name=f"s_{k}/d_top square n={n}"))
        for n in range(0, d_n_max + 1):
            for k in range(0, n + 1):
                report.checks.append(is_pullback_square(
                    p=X.face(n + 3, 0), q=X.face(n + 3, k + 2),
                    f=X.face(n + 2, k + 1), g=X.face(n + 2, 0),
                    grade_bound=gb, name=f"d_{k + 2}/d_bot square n={n}"))
                report.checks.append(is_pullback_square(
                    p=X.face(n + 3, n + 3), q=X.face(n + 3, k + 1),
                    f=X.face(n + 2, k + 1), g=X.face(n + 2, n + 2),
                    grade_bound=gb, name=f"d_{k + 1}/d_top square n={n}"))
        return report

    raise DomainError(f"unknown profile {profile!r}")


def _check_identities(X: TruncatedSimplicialGroupoid, n_max: int) -> AxiomReport:
    report = AxiomReport(profile="identities", note=f"levels 0..{min(n_max, X.max_level)}")
    top = min(n_max, X.max_level)

    def record(ok, name):
        report.checks.append(SquareResult(ok, None if ok else "functors differ", name))

    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = GroupoidFunctor.compose(X.face(n - 1, i), X.face(n, j))
                rhs = GroupoidFunctor.compose(X.face(n - 1, j - 1), X.face(n, i))
                record(functors_equal(lhs, rhs), f"d_{i} d_{j} level {n}")
    for n in range(0, top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = GroupoidFunctor.compose(X.degeneracy(n + 1, j + 1), X.degeneracy(n, i))
                rhs = GroupoidFunctor.compose(X.degeneracy(n + 1, i), X.degeneracy(n, j))
                record(functors_equal(lhs, rhs), f"s_i s_j ({i},{j}) level {n}")
    for n in range(0, top):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = GroupoidFunctor.compose(X.face(n + 1, i), X.degeneracy(n, j))
                if i == j or i == j + 1:
                    rhs = GroupoidFunctor.identity(X.level(n))
                elif i < j:
                    rhs = GroupoidFunctor.compose(X.degeneracy(n - 1, j - 1), X.face(n, i))
                else:
                    rhs = GroupoidFunctor.compose(X.degeneracy(n - 1, j), X.face(n, i - 1))
                record(functors_equal(lhs, rhs), f"d_{i} s_{j} level {n}")
    if X.level(1).is_graded() and X.max_level >= 2:
        lvl2, lvl1 = X.level(2), X.level(1)
        d0, d1, d2 = X.face(2, 0), X.face(2, 1), X.face(2, 2)
        ok = all(lvl1.grade(d1.ob(s)) == lvl1.grade(d2.ob(s)) + lvl1.grade(d0.ob(s))
                 for s in lvl2.objects)
        record(ok, "additive grading at level 2")
        for n in range(0, min(top, X.max_level - 1) + 1):
            lvl, nxt = X.level(n), X.level(n + 1)
            if not (lvl.is_graded() and nxt.is_graded()):
                continue
            ok = all(nxt.grade(X.degeneracy(n, i).ob(s)) == lvl.grade(s)
                     for i in range(n + 1) for s in lvl.objects)
            record(ok, f"degeneracies preserve grade at level {n}")
    return report


def is_culf(f: SimplicialMap, n_max: int) -> AxiomReport:
    """Cartesian on every codegeneracy and inner coface square up to n_max.

    Codegeneracy squares are checked for 0 <= i <= n <= n_max (they reach
    level n+1); inner coface squares for as many n as the truncation
    allows (they reach level n+2), with the verified range recorded (none,
    and the level they need, below level 2).  n_max must be at least 0.
    """
    if n_max < 0:
        raise DomainError(f"the culf check needs n_max >= 0, got {n_max}")
    if n_max + 1 > f.max_level:
        raise InsufficientLevelsError(n_max + 1, f.max_level, "culf check")
    d_n_max = min(n_max, f.max_level - 2)
    gb = f.source.grade_bound
    if gb is None:
        gb = f.target.grade_bound
    report = AxiomReport(
        profile="culf",
        note=(f"codegeneracies n = 0..{n_max}; "
              + _range_note("inner cofaces", d_n_max, 2, f.max_level)))
    C, Y = f.source, f.target
    for n in range(0, n_max + 1):
        for i in range(n + 1):
            report.checks.append(is_pullback_square(
                p=f.level_map(n), q=C.degeneracy(n, i),
                f=Y.degeneracy(n, i), g=f.level_map(n + 1),
                grade_bound=gb, name=f"codegeneracy square s_{i} n={n}"))
    for n in range(0, d_n_max + 1):
        for i in range(n + 1):
            report.checks.append(is_pullback_square(
                p=f.level_map(n + 2), q=C.face(n + 2, i + 1),
                f=Y.face(n + 2, i + 1), g=f.level_map(n + 1),
                grade_bound=gb, name=f"inner coface square d_{i + 1} n={n}"))
    return report
