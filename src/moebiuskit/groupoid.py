"""Finite 1-groupoids, functors between them, and homotopy pullbacks.

Everything downstream (simplicial levels, axiom checks, weighted counts)
reduces to a handful of operations implemented here:

* `cardinality` -- the automorphism-weighted count sum(1/|Aut|) over
  isomorphism classes,
* `homotopy_pullback` -- the iso-comma construction; `fiber` is its
  groupoid part along the functor that picks one object,
* `is_pullback_square`, `is_equivalence`, `is_monomorphism` -- exhaustive
  structural checks with explicit witnesses on failure.

Iso classes follow one rule: a groupoid with an exact `iso_key` groups
its objects by key, any other compares each object by `hom` with the
class representatives found so far.  Moving a morphism to the class
representatives of its ends (`skeletalize`, the iso-comma keys, the
pullback comparison) follows one rule too: c_tgt . m . c_src^{-1} along
the connectors of its ends, skipping the factor of an end that already
is its representative.  The connectors and the automorphisms of the
representatives generate the groupoid, so the strict-commutation check
`functors_equal` compares two functors on them alone.

Images and fibers both live in the functor.  A `tabulated` functor
computes each object's image once, into its image table, and any functor
builds its fiber table, {target class: the source class representatives
over it, in source order}, on its first fiber query.  `weighted_fiber`
and `fiber_cardinality` read one entry of the fiber table, and the class
image behind `is_equivalence` and `is_monomorphism` reads all of it.  A
functor built for one call, by `restrict` or `compose`, gets a fresh
fiber table.

A pullback square is checked against the iso-comma of the legs restricted
to the class representatives of A and B.  That iso-comma is a full
subgroupoid of the whole one, equivalent to it, and holds the first
member of each of its classes, so the verdict, the class representatives
and every witness are those of the whole iso-comma.

Morphisms are identified by the triple (source, target, label); labels are
opaque and compared by equality.  Composition is written `compose(g, f)`
for "g after f".  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Optional


class Memo:
    """Owner of one memo dict holding the values derived from this object,
    keyed by (kind, *args).  Hot accessors read `_memo` inline and come
    here only on a miss."""

    def __init__(self):
        self._memo: dict = {}

    def _get(self, key: tuple, build: Callable, *args):
        """The value memoised under key, built as build(*args) on a miss."""
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]


class StructureError(Exception):
    """A groupoid, functor or square violates its structural invariants."""


class DomainError(Exception):
    """An argument lies outside the domain of the requested operation."""


@dataclass(frozen=True)
class Mor:
    """A morphism, identified by (src, tgt, label)."""

    src: Any
    tgt: Any
    label: Any

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.tgt!r}: {self.label!r})"


class FiniteGroupoid(Memo):
    """A finite groupoid given by objects plus hom/compose/identity rules.

    `hom`, `compose` and `identity` may be arbitrary callables; use
    `FiniteGroupoid.from_tables` for fully explicit table-backed data (the
    form accepted from instance files), and `validate` to scan the tables
    for associativity, units, inverses and hom-set disjointness.

    `iso_key` is an exact invariant: objects are isomorphic if and only if
    their keys agree, and the iso-class table groups the objects by it
    (layered levels key by canonical forms, iso-commas by double cosets,
    discrete groupoids and skeletons by the object itself).  Without one,
    each object is compared by `hom` with the representatives found so
    far.  Either way classes and representatives follow object order.
    """

    def __init__(
        self,
        objects: Iterable[Any],
        hom: Callable[[Any, Any], tuple],
        compose: Callable[[Mor, Mor], Mor],
        identity: Callable[[Any], Mor],
        grade: Optional[Callable[[Any], int]] = None,
        iso_key: Optional[Callable[[Any], Any]] = None,
        name: str = "",
    ):
        super().__init__()
        self.objects = tuple(objects)
        self._object_set = frozenset(self.objects)
        if len(self._object_set) != len(self.objects):
            raise StructureError("duplicate object ids")
        self._hom = hom
        self._compose = compose
        self._identity = identity
        self._grade = grade
        self._iso_key = iso_key
        self.name = name

    # -- basic structure ------------------------------------------------

    def has_object(self, a) -> bool:
        return a in self._object_set

    def hom(self, a, b) -> tuple:
        if not (self.has_object(a) and self.has_object(b)):
            raise DomainError(f"{a!r} or {b!r} not an object of {self.name or 'groupoid'}")
        return tuple(self._hom(a, b))

    def identity(self, a) -> Mor:
        if not self.has_object(a):
            raise DomainError(f"{a!r} not an object")
        return self._identity(a)

    def compose(self, g: Mor, f: Mor) -> Mor:
        """g after f; requires f.tgt == g.src."""
        if f.tgt != g.src:
            raise DomainError(f"not composable: {f!r} then {g!r}")
        return self._compose(g, f)

    def inverse(self, f: Mor) -> Mor:
        ida = self.identity(f.src)
        for g in self.hom(f.tgt, f.src):
            if self.compose(g, f) == ida:
                return g
        raise StructureError(f"no inverse found for {f!r}")

    def is_graded(self) -> bool:
        return self._grade is not None

    def grade(self, a) -> int:
        if self._grade is None:
            raise DomainError("groupoid carries no grade")
        return self._grade(a)

    # -- iso classes -----------------------------------------------------

    def iso_classes(self) -> "IsoClassTable":
        table = self._memo.get(("iso_classes",))
        if table is None:
            table = self._get(("iso_classes",), IsoClassTable._build, self)
        return table

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        objects: Iterable[Any],
        homs: Mapping,
        compose: Mapping,
        identities: Mapping,
        grade: Optional[Callable[[Any], int]] = None,
        name: str = "",
    ) -> "FiniteGroupoid":
        """Build from explicit tables.

        `homs` maps (a, b) to an iterable of labels, `compose` maps
        (f_key, g_key) to the label of g after f where f_key is the triple
        (src, tgt, label), and `identities` maps each object to its
        identity label.
        """
        objects = tuple(objects)
        hom_table = {}
        for (a, b), labels in homs.items():
            hom_table[(a, b)] = tuple(Mor(a, b, l) for l in labels)
        compose_table = dict(compose)
        ident_table = dict(identities)

        def hom(a, b):
            return hom_table.get((a, b), ())

        def comp(g, f):
            key = ((f.src, f.tgt, f.label), (g.src, g.tgt, g.label))
            if key not in compose_table:
                raise StructureError(f"composition table has no entry for {key}")
            return Mor(f.src, g.tgt, compose_table[key])

        def ident(a):
            return Mor(a, a, ident_table[a])

        return cls(objects, hom, comp, ident, grade=grade, name=name)

    def validate(self) -> None:
        """Exhaustively check the groupoid axioms; raise StructureError.

        Every pair of objects is scanned: the iso classes of a structure
        under check are not trusted."""
        mors = [m for a in self.objects for b in self.objects for m in self.hom(a, b)]
        seen = {}
        out_of: dict = {}
        for m in mors:
            if m.label in seen and seen[m.label] != (m.src, m.tgt):
                raise StructureError(f"label {m.label!r} reused across hom-sets")
            seen.setdefault(m.label, (m.src, m.tgt))
            out_of.setdefault(m.src, []).append(m)
        for a in self.objects:
            ida = self.identity(a)
            if (ida.src, ida.tgt) != (a, a):
                raise StructureError(f"identity of {a!r} is not an endomorphism")
            if ida not in self.hom(a, a):
                raise StructureError(f"identity of {a!r} missing from hom({a!r},{a!r})")
        for f in mors:
            if self.compose(f, self.identity(f.src)) != f:
                raise StructureError(f"right unit law fails at {f!r}")
            if self.compose(self.identity(f.tgt), f) != f:
                raise StructureError(f"left unit law fails at {f!r}")
            gf = self.compose(self.inverse(f), f)  # raises if no inverse
            if gf != self.identity(f.src):
                raise StructureError(f"inverse law fails at {f!r}")
        for f in mors:
            for g in out_of.get(f.tgt, ()):
                gf = self.compose(g, f)
                if gf not in self.hom(f.src, g.tgt):
                    raise StructureError(f"composite {gf!r} escapes its hom-set")
                for h in out_of.get(g.tgt, ()):
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        raise StructureError(
                            f"associativity fails at {f!r}, {g!r}, {h!r}")


def discrete_groupoid(objects, grade=None, name="") -> FiniteGroupoid:
    """The groupoid with the given objects and only identity morphisms."""

    def hom(a, b):
        return (Mor(a, a, "id"),) if a == b else ()

    def compose(g, f):
        return Mor(f.src, g.tgt, "id")

    def identity(a):
        return Mor(a, a, "id")

    return FiniteGroupoid(objects, hom, compose, identity, grade=grade,
                          iso_key=lambda a: a, name=name)


def discrete_functor(source, target, ob, name="") -> "GroupoidFunctor":
    """The tabulated functor out of a discrete groupoid with object map
    `ob`; each identity goes to the identity of its image."""
    return GroupoidFunctor.tabulated(source, target, ob, name=name)


class IsoClassTable:
    """Partition of a groupoid's objects into isomorphism classes.

    Each class carries a deterministic representative (first member in
    object order) and the order of its automorphism group.
    """

    def __init__(self, reps, members, class_of, aut_orders):
        self.reps = tuple(reps)
        self.members = members
        self._class_of = class_of
        self.aut_orders = aut_orders

    @staticmethod
    def _build(G: FiniteGroupoid) -> "IsoClassTable":
        if G._iso_key is not None:
            by_key: dict = {}
            for a in G.objects:
                by_key.setdefault(G._iso_key(a), []).append(a)
            groups = list(by_key.values())
        else:
            groups = []
            for a in G.objects:
                for group in groups:
                    if G.hom(group[0], a):
                        group.append(a)
                        break
                else:
                    groups.append([a])
        reps, members, class_of = [], {}, {}
        for group in groups:
            rep = group[0]
            reps.append(rep)
            members[rep] = tuple(group)
            for b in group:
                class_of[b] = rep
        aut_orders = {rep: len(G.hom(rep, rep)) for rep in reps}
        for rep, n in aut_orders.items():
            if n < 1:
                raise StructureError(f"object {rep!r} has no automorphisms at all")
        return IsoClassTable(reps, members, class_of, aut_orders)

    def class_of(self, a):
        if a not in self._class_of:
            raise DomainError(f"{a!r} not an object of the carrier")
        return self._class_of[a]

    def aut_order(self, a) -> int:
        return self.aut_orders[self.class_of(a)]

    def cardinality(self) -> Fraction:
        return sum((Fraction(1, n) for n in self.aut_orders.values()), Fraction(0))


def cardinality(G: FiniteGroupoid) -> Fraction:
    """Homotopy cardinality sum over iso classes of 1/|Aut|."""
    return G.iso_classes().cardinality()


class GroupoidFunctor(Memo):
    """A functor between finite groupoids: an object map plus morphism map.

    Its `_memo` holds its image table, when it is `tabulated`, and its
    fiber table (see `weighted_fiber`)."""

    def __init__(self, source, target, ob, mor, name=""):
        super().__init__()
        self.source = source
        self.target = target
        self._ob = ob if callable(ob) else ob.__getitem__
        self._mor = mor
        self.name = name

    def ob(self, a):
        return self._ob(a)

    def __call__(self, m: Mor) -> Mor:
        return self._mor(m)

    def restrict(self, W: FiniteGroupoid) -> "GroupoidFunctor":
        """This functor on a full subgroupoid W of its source."""
        return GroupoidFunctor(W, self.target, self._ob, self._mor, name=f"{self.name}|sub")

    @classmethod
    def tabulated(cls, source, target, rule, mor=None, name="") -> "GroupoidFunctor":
        """The functor that computes each object's entry rule(a) once, into
        the image table ("images",) of its `_memo`.

        With `mor`, an entry is a tuple whose first item is the image of a,
        and a morphism m goes to mor(m, entry of m.src, entry of m.tgt).
        Without, the source is discrete, the entry is the image itself, and
        each identity goes to the identity of its image."""
        table: dict = {}

        def entry(a):
            try:
                return table[a]
            except KeyError:
                x = table[a] = rule(a)
                return x

        if mor is None:
            ob, mor_map = entry, lambda m: target.identity(entry(m.src))
        else:
            ob = lambda a: (table.get(a) or entry(a))[0]
            mor_map = lambda m: mor(m, table.get(m.src) or entry(m.src),
                                    table.get(m.tgt) or entry(m.tgt))
        F = cls(source, target, ob, mor_map, name=name)
        F._memo["images",] = table
        return F

    @classmethod
    def identity(cls, G, name="id") -> "GroupoidFunctor":
        return cls(G, G, lambda a: a, lambda m: m, name=name)

    @classmethod
    def compose(cls, G: "GroupoidFunctor", F: "GroupoidFunctor") -> "GroupoidFunctor":
        """G after F."""
        if F.target is not G.source and F.target.objects != G.source.objects:
            raise DomainError("functors not composable")
        return cls(F.source, G.target, lambda a: G.ob(F.ob(a)),
                   lambda m: G(F(m)), name=f"{G.name}*{F.name}")


def functors_equal(F: GroupoidFunctor, G: GroupoidFunctor) -> bool:
    """Strict equality of two functors out of the same source S: the same
    object map on every object, and the same morphism map on a generating
    set of S.  The generators are, per iso class of S, the automorphisms
    of its representative r and the connector `_connector(S, a, r)` of
    each other member a.

    That decides equality of functors: an m: a -> b in the class of r is
    c_b^{-1} . (c_b . m . c_a^{-1}) . c_a with the middle factor in
    Aut(r), so F and G agree on m once they agree on the connectors and on
    Aut(r).  The check reads one hom-set per object, where listing every
    morphism reads n^2 of them for a class of n objects."""
    S = F.source
    for a in S.objects:
        if F.ob(a) != G.ob(a):
            return False
    table = S.iso_classes()
    for rep in table.reps:
        for a in table.members[rep]:
            for m in S.hom(rep, rep) if a == rep else (_connector(S, a, rep),):
                if F(m) != G(m):
                    return False
    return True


def full_subgroupoid(G: FiniteGroupoid, objects, name="") -> FiniteGroupoid:
    objects = tuple(objects)
    for a in objects:
        if not G.has_object(a):
            raise DomainError(f"{a!r} not an object of the ambient groupoid")
    return FiniteGroupoid(objects, G._hom, G._compose, G._identity,
                          grade=G._grade, iso_key=G._iso_key,
                          name=name or f"{G.name}|sub")


# -- fibers and pullbacks ---------------------------------------------------


def _connector(G: FiniteGroupoid, a, rep) -> Optional[Mor]:
    """An iso a -> rep, or None when a is rep."""
    return None if a == rep else G.hom(a, rep)[0]


def _transport(G: FiniteGroupoid, m: Mor, c_src: Optional[Mor],
               c_tgt: Optional[Mor]) -> Mor:
    """c_tgt . m . c_src^{-1}: m moved along the connectors of its ends; a
    None connector (an end that is its representative) skips its factor."""
    if c_src is not None:
        m = G.compose(m, G.inverse(c_src))
    if c_tgt is not None:
        m = G.compose(c_tgt, m)
    return m


def _skeleton(G: FiniteGroupoid) -> FiniteGroupoid:
    """The full subgroupoid on the class representatives, keyed by object
    (they are pairwise non-isomorphic); one per groupoid."""
    return G._get(("skeleton",), FiniteGroupoid, G.iso_classes().reps, G._hom,
                  G._compose, G._identity, G._grade, lambda a: a, f"sk({G.name})")


def fiber(F: GroupoidFunctor, c) -> FiniteGroupoid:
    """The homotopy fiber of F over the object c of its target: the
    groupoid part of `homotopy_pullback(F, at_c)`, where at_c picks c out
    of the one-object discrete groupoid.

    Objects are triples (a, c, phi) with phi: F(a) -> c; a morphism
    (a, c, phi) -> (a', c, phi') is labelled (alpha, "id") for the
    alpha: a -> a' with phi' . F(alpha) = phi.
    """
    if not F.target.has_object(c):
        raise DomainError(f"{c!r} is not an object of the target")
    at_c = discrete_functor(discrete_groupoid([c]), F.target, lambda b: b, name=f"at {c!r}")
    return homotopy_pullback(F, at_c)[0]


def fiber_cardinality(F: GroupoidFunctor, c) -> Fraction:
    """|fiber(F, c)| computed class-wise: the single part of `weighted_fiber`
    under a constant label, so it reads one entry of F's fiber table.

    This is the fast path; it agrees with cardinality(fiber(F, c)) and the
    two are cross-checked in the test suite.
    """
    return weighted_fiber(F, c, lambda rep: None).get(None, Fraction(0))


def _fiber_table(F: GroupoidFunctor) -> dict:
    """{target class: the source class representatives over it, in source
    order}, built on the first query and kept in F's `_memo`."""
    table = F._memo.get(("fibers",))
    if table is None:
        class_of = F.target.iso_classes().class_of
        table = {}
        for rep in F.source.iso_classes().reps:
            table.setdefault(class_of(F.ob(rep)), []).append(rep)
        F._memo["fibers",] = table   # only whole: an image outside the target raises
    return table


def weighted_fiber(F: GroupoidFunctor, c, label_fn) -> dict:
    """Decompose |fiber(F, c)| as a sum of weights, grouped by an
    iso-invariant label of the source class.

    Returns {label: weight} with weight = sum of |Aut c| / |Aut a| over the
    source classes a whose image is isomorphic to c, in source order; they
    are one entry of F's fiber table.  `label_fn` is applied to class
    representatives and must be constant on iso classes.
    """
    ttab = F.target.iso_classes()
    cls_c = ttab.class_of(c)
    aut_c = ttab.aut_orders[cls_c]
    aut_orders = F.source.iso_classes().aut_orders
    out: dict = {}
    for rep in _fiber_table(F).get(cls_c, ()):
        key = label_fn(rep)
        out[key] = out.get(key, Fraction(0)) + Fraction(aut_c, aut_orders[rep])
    return out


def homotopy_pullback(f: GroupoidFunctor, g: GroupoidFunctor,
                      grade_bound: Optional[int] = None):
    """The iso-comma groupoid of a cospan f: A -> C <- B :g.

    Objects are triples (a, b, phi: f(a) -> g(b)); a morphism
    (alpha, beta) requires g(beta) . phi = phi' . f(alpha).  Returns
    (P, proj_a, proj_b).

    When all three groupoids are graded and `grade_bound` is given, the
    object set is restricted to glued grade
    grade(a) + grade(b) - grade(f(a)) <= grade_bound, which is the grade
    of the would-be gluing; this keeps pullback checks sound on levels
    that were generated under the same grade bound.
    """
    A, B, C = f.source, g.source, f.target
    if g.target is not C and g.target.objects != C.objects:
        raise DomainError("cospan legs do not share a codomain")
    graded = A.is_graded() and B.is_graded() and C.is_graded()
    ctab = C.iso_classes()
    by_class: dict = {}
    for b in B.objects:
        by_class.setdefault(ctab.class_of(g.ob(b)), []).append(b)
    objs = []
    for a in A.objects:
        fa = f.ob(a)
        for b in by_class.get(ctab.class_of(fa), ()):
            if graded and grade_bound is not None:
                glued = A.grade(a) + B.grade(b) - C.grade(fa)
                if glued > grade_bound:
                    continue
            for phi in C.hom(fa, g.ob(b)):
                objs.append((a, b, phi))

    def hom(x, y):
        (a, b, phi), (a2, b2, phi2) = x, y
        out = []
        for alpha in A.hom(a, a2):
            lhs = C.compose(phi2, f(alpha))
            for beta in B.hom(b, b2):
                if C.compose(g(beta), phi) == lhs:
                    out.append(Mor(x, y, (alpha.label, beta.label)))
        return tuple(out)

    def compose(q, p):
        al = A.compose(Mor(q.src[0], q.tgt[0], q.label[0]),
                       Mor(p.src[0], p.tgt[0], p.label[0]))
        be = B.compose(Mor(q.src[1], q.tgt[1], q.label[1]),
                       Mor(p.src[1], p.tgt[1], p.label[1]))
        return Mor(p.src, q.tgt, (al.label, be.label))

    def identity(x):
        return Mor(x, x, (A.identity(x[0]).label, B.identity(x[1]).label))

    atab, btab = A.iso_classes(), B.iso_classes()
    grade_fn = None
    if graded:
        grade_fn = lambda x: A.grade(x[0]) + B.grade(x[1]) - C.grade(f.ob(x[0]))

    # exact iso invariant via the double-coset orbit of the transported
    # comparison iso under the images of Aut(rep_a) x Aut(rep_b), as a set
    # of labels
    f_auts: dict = {}
    g_auts: dict = {}

    def iso_key(x):
        a, b, phi = x
        ra, rb = atab.class_of(a), btab.class_of(b)
        if ra not in f_auts:
            f_auts[ra] = [f(alpha) for alpha in A.hom(ra, ra)]
        if rb not in g_auts:
            g_auts[rb] = [g(beta) for beta in B.hom(rb, rb)]
        ca, cb = _connector(A, a, ra), _connector(B, b, rb)
        tilde = _transport(C, phi, ca and f(ca), cb and g(cb))
        return ra, rb, frozenset(C.compose(v, C.compose(tilde, u)).label
                                 for u in f_auts[ra] for v in g_auts[rb])

    P = FiniteGroupoid(
        objs, hom, compose, identity, grade=grade_fn, iso_key=iso_key,
        name=f"pb({f.name},{g.name})",
    )
    pa = GroupoidFunctor(P, A, lambda x: x[0],
                         lambda m: Mor(m.src[0], m.tgt[0], m.label[0]), name="pr1")
    pb = GroupoidFunctor(P, B, lambda x: x[1],
                         lambda m: Mor(m.src[1], m.tgt[1], m.label[1]), name="pr2")
    return P, pa, pb


# -- structural checks -------------------------------------------------------


@dataclass
class SquareResult:
    """Outcome of a structural check (a pullback square, an equivalence)."""

    passed: bool
    witness: Optional[str] = None
    name: str = ""

    def __bool__(self):
        return self.passed


def _class_image(F: GroupoidFunctor):
    """(image, witness): the source class over each target class, read off
    F's fiber table, and a witness naming the first source class, in
    source order, whose target class an earlier one already has."""
    table = _fiber_table(F)
    image = {tcls: reps[0] for tcls, reps in table.items()}
    shared = [(tcls, reps) for tcls, reps in table.items() if len(reps) > 1]
    if not shared:
        return image, None
    order = {rep: i for i, rep in enumerate(F.source.iso_classes().reps)}
    tcls, reps = min(shared, key=lambda entry: order[entry[1][1]])
    return image, ("not fully faithful: source classes "
                   f"{reps[0]!r} and {reps[1]!r} share target class {tcls!r}")


def _aut_witness(F: GroupoidFunctor) -> Optional[str]:
    """The first source class whose automorphism map is not a bijection
    Aut(rep) -> Aut(F rep)."""
    for rep in F.source.iso_classes().reps:
        auts = F.source.hom(rep, rep)
        images = {F(alpha) for alpha in auts}
        frep = F.ob(rep)
        target_auts = F.target.hom(frep, frep)
        if len(images) != len(auts) or len(auts) != len(target_auts):
            return (f"automorphism map not bijective at class {rep!r}: "
                    f"|Aut|={len(auts)} vs |Aut(F rep)|={len(target_auts)}")
        outside = images.difference(target_auts)
        if outside:
            return (f"automorphism map not bijective at class {rep!r}: "
                    f"{min(outside, key=repr)!r} is not in Aut(F rep)")
    return None


def is_equivalence(F: GroupoidFunctor) -> SquareResult:
    """Fully faithful + essentially surjective, checked on iso classes.

    The result is truthy exactly for an equivalence; on failure its
    witness names the pair of source classes that collide, the missed
    target class, or the class whose automorphism map is not bijective.
    """
    image, witness = _class_image(F)
    if witness is None:
        missed = [tcls for tcls in F.target.iso_classes().reps if tcls not in image]
        if missed:
            witness = f"not essentially surjective: target class {missed[0]!r} missed"
    if witness is None:
        witness = _aut_witness(F)
    return SquareResult(witness is None, witness)


def is_monomorphism(F: GroupoidFunctor) -> bool:
    """True iff every homotopy fiber of F is empty or contractible.

    On groupoids that is full faithfulness: F is injective on iso classes
    and bijective on each automorphism group."""
    return _class_image(F)[1] is None and _aut_witness(F) is None


def is_pullback_square(
    p: GroupoidFunctor,
    q: GroupoidFunctor,
    f: GroupoidFunctor,
    g: GroupoidFunctor,
    grade_bound: Optional[int] = None,
    name: str = "",
) -> SquareResult:
    """Check that the strictly commuting square

        W --q--> B
        |        |
        p        g
        v        v
        A --f--> C

    is a homotopy pullback: the comparison functor from W into the
    iso-comma groupoid of (f, g) must be an equivalence.  Non-commuting
    squares are a domain error, distinct from a failed pullback check;
    `functors_equal` decides commutation on the generators of W, the
    automorphisms of its class representatives and the connectors to
    them.

    The comparison lands in the iso-comma P' of f and g restricted to the
    class representatives of A and B (to A or B itself where every class
    is one object).  It sends w to (r_a, r_b, g(c_b) . f(c_a)^{-1}), with
    c_a: p(w) -> r_a and c_b: q(w) -> r_b the class connectors, and a
    morphism to its conjugate along them.  P' is the full subgroupoid of
    the whole iso-comma P on the objects over representatives, and each
    P class meets it, so W -> P' is an equivalence iff W -> P is.  P'
    lists its objects in P's order and holds each P class's first member,
    so classes, representatives and witnesses are P's.
    """
    W = p.source
    if q.source is not W:
        raise DomainError("square corner mismatch")
    fp = GroupoidFunctor.compose(f, p)
    gq = GroupoidFunctor.compose(g, q)
    if not functors_equal(fp, gq):
        raise DomainError(f"square {name or ''} does not commute strictly")
    A, B, C = f.source, g.source, f.target
    atab, btab = A.iso_classes(), B.iso_classes()

    def on_reps(h):
        G = h.source
        return h if len(G.iso_classes().reps) == len(G.objects) else h.restrict(_skeleton(G))

    P, _, _ = homotopy_pullback(on_reps(f), on_reps(g), grade_bound=grade_bound)

    def to_reps(w):
        # (image, c_a, c_b); None connectors for ends already at their reps
        a, b = p.ob(w), q.ob(w)
        ra, rb = atab.class_of(a), btab.class_of(b)
        ca, cb = _connector(A, a, ra), _connector(B, b, rb)
        phi = _transport(C, C.identity(f.ob(a)), ca and f(ca), cb and g(cb))
        return (ra, rb, phi), ca, cb

    def mor(m, src, tgt):
        (x, ca, cb), (y, ca2, cb2) = src, tgt
        return Mor(x, y, (_transport(A, p(m), ca, ca2).label,
                          _transport(B, q(m), cb, cb2).label))

    result = is_equivalence(GroupoidFunctor.tabulated(W, P, to_reps, mor, name="cmp"))
    return SquareResult(result.passed, result.witness, name=name)


def skeletalize(G: FiniteGroupoid):
    """Return (skeleton, functor G -> skeleton).

    The skeleton is the full subgroupoid on one representative per iso
    class; the functor sends each object along a chosen connecting iso.
    """
    S, class_of = _skeleton(G), G.iso_classes().class_of
    return S, GroupoidFunctor.tabulated(
        G, S, lambda x: (class_of(x), _connector(G, x, class_of(x))),
        lambda m, x, y: _transport(G, m, x[1], y[1]), name="sk")
