"""Finite 1-groupoids, functors between them, and homotopy pullbacks.

Everything downstream (simplicial levels, axiom checks, weighted counts)
reduces to a handful of operations implemented here:

* `cardinality` -- the automorphism-weighted count sum(1/|Aut|) over
  isomorphism classes,
* `homotopy_pullback` -- the iso-comma construction, which no check
  builds: it is the reference the pullback checks are tested against,
* `is_pullback_square`, `is_equivalence`, `is_monomorphism` -- exhaustive
  structural checks with explicit witnesses on failure.

Iso classes follow one rule: a groupoid with an exact `iso_key` groups
its objects by key, any other compares each object by `hom` with the
class representatives found so far.  A groupoid may instead carry its
table from construction, provided it is the table that rule gives: a
discrete groupoid, each object its own class, and a layered level of
`examples`, whose table and hom-sets come from relabeling orbits with no
canonical form computed.  Moving a morphism to the class representatives
of its ends (the iso-comma keys, the pullback comparison) follows one
rule too: c_tgt . m . c_src^{-1} along the connectors of its ends,
skipping the factor of an end that already is its representative.  The
connectors and the automorphisms of the representatives generate the
groupoid, so the strict-commutation check `functors_equal` compares two
functors on them alone.  It skips a class whose image has a trivial Aut
in the target both functors share: the generators of that class go into
hom-sets with one element.

Per-object class data is read once per groupoid, into its `_memo`: the
automorphism group hom(a, a) under ("auts", a) and the connector
a -> class_of(a) and its inverse under ("connector", a, inverse), each
filled from hom-sets on its first read by `_auts` and `_connector`, the
only code that knows these entries.  The iso-class table,
`functors_equal`, the iso-comma keys, the orbit walk of a pullback check
and the automorphism test of `is_equivalence` read them there, so the
levels shared by every square of an axiom check are read once for all of
them.  No entry refers to its owner.

Images and fibers both live in the functor.  A `tabulated` functor
maps each object and each morphism once, into an object and a morphism
table whose `__missing__` runs the rule: a hit on F.ob(a) or F(m) is one
dict lookup in C, and a key outside the source still reaches the rule,
with its errors.  A composite calls the maps of its parts.  Any functor
builds its fiber table, {target class: the source class representatives
over it, in source order}, on its first fiber query.  `weighted_fiber`
and `fiber_cardinality` read one entry of the fiber table, and the class
image behind `is_equivalence` and `is_monomorphism` reads all of it.  A
functor built for one call, by `restrict` or `compose`, gets a fresh
fiber table.

A pullback square is decided with no iso-comma groupoid built (see
`is_pullback_square`), through the orbits of its legs by
`_iso_comma_classes`: over class representatives r_a, r_b an iso-comma
class is a double coset f(Aut r_a) \\ Iso(f r_a, g r_b) / g(Aut r_b),
with |Aut r_a| |Aut r_b| / |orbit| automorphisms.  That orbit walk forms
every witness and error, those of the comparison into the whole
iso-comma.  A square of sets with no grade bound, W, A and B discrete as
on nerve levels, passes without it when `_set_pullback_passes` finds in
one walk of W that the images w -> (p w, q w, id) are distinct objects
of the discrete iso-comma, as many as it has, a number counted off the
legs' fiber tables.

Groupoids meet by identity: a composite G . F needs F to land in the
very groupoid G starts from, and a cospan f: A -> C <- B :g needs g to
land in the C of f.  Two groupoids with equal object tuples stay two.

Morphisms are identified by the triple (source, target, label); labels are
opaque and compared by equality.  Composition is written `compose(g, f)`
for "g after f".  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional


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


class Mor(NamedTuple):
    """A morphism, identified by (src, tgt, label).

    A named tuple, so construction, hash and equality run in C, and its
    hash is hash((src, tgt, label)).  A Mor compares equal to the plain
    triple (src, tgt, label); no container of the library holds both."""

    src: Any
    tgt: Any
    label: Any

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.tgt!r}: {self.label!r})"


class FiniteGroupoid(Memo):
    """A finite groupoid given by objects plus hom/compose/identity rules.

    `hom`, `compose` and `identity` may be arbitrary callables; use
    `FiniteGroupoid.from_tables` for fully explicit table-backed data, and
    `validate` to scan the tables for associativity, units, inverses and
    the ends of each hom-set's morphisms.

    `iso_key` is an exact invariant: objects are isomorphic if and only if
    their keys agree, and the iso-class table groups the objects by it
    (layered groupoids key by canonical forms, iso-commas by double cosets,
    discrete groupoids and skeletons by the object itself).  Without one,
    each object is compared by `hom` with the representatives found so
    far.  Either way classes and representatives follow object order.  A
    discrete groupoid and a layered level carry that table from
    construction, the latter built from relabeling orbits.
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

        return cls(objects, hom, comp, ident, name=name)

    def validate(self) -> None:
        """Exhaustively check the groupoid axioms; raise StructureError.

        Every pair of objects is scanned: the iso classes of a structure
        under check are not trusted."""
        mors: list = []
        out_of: dict = {}
        for a in self.objects:
            for b in self.objects:
                for m in self.hom(a, b):
                    if (m.src, m.tgt) != (a, b):
                        raise StructureError(f"{m!r} in hom({a!r},{b!r}) has other ends")
                    mors.append(m)
                    out_of.setdefault(a, []).append(m)
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
            self.inverse(f)   # finds a g with g . f the identity, or raises
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
    """The groupoid with the given objects and only identity morphisms.

    It carries its iso-class table from construction, each object its own
    class with a trivial Aut: the table `IsoClassTable._build` would read
    off one hom-set per object."""

    def hom(a, b):
        return (Mor(a, a, "id"),) if a == b else ()

    def compose(g, f):
        return Mor(f.src, g.tgt, "id")

    def identity(a):
        return Mor(a, a, "id")

    G = FiniteGroupoid(objects, hom, compose, identity, grade=grade,
                       iso_key=lambda a: a, name=name)
    objs = G.objects
    G._memo["iso_classes",] = IsoClassTable(
        objs, {a: (a,) for a in objs}, dict(zip(objs, objs)), dict.fromkeys(objs, 1))
    return G


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
        aut_orders = {rep: len(_auts(G, rep)) for rep in reps}
        for rep, n in aut_orders.items():
            if n < 1:
                raise StructureError(f"object {rep!r} has no automorphisms at all")
        return IsoClassTable(reps, members, class_of, aut_orders)

    def class_of(self, a):
        if a not in self._class_of:
            raise DomainError(f"{a!r} not an object of the carrier")
        return self._class_of[a]

    def cardinality(self) -> Fraction:
        return sum((Fraction(1, n) for n in self.aut_orders.values()), Fraction(0))


def cardinality(G: FiniteGroupoid) -> Fraction:
    """Homotopy cardinality sum over iso classes of 1/|Aut|."""
    return G.iso_classes().cardinality()


class _ImageTable(dict):
    """The image table of a tabulated functor: a miss runs the rule once
    and keeps its entry, so a hit is a plain dict lookup.  Any hashable
    key reaches the rule, inside the source or not."""

    __slots__ = ("rule",)

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, a):
        x = self[a] = self.rule(a)
        return x


class GroupoidFunctor(Memo):
    """A functor between finite groupoids: callable object and morphism maps.

    Its `_memo` holds its fiber table (see `weighted_fiber`)."""

    def __init__(self, source, target, ob, mor, name=""):
        super().__init__()
        self.source = source
        self.target = target
        self._ob = ob
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
        """The functor that maps each object and each morphism once, into
        an object table and a morphism table, both `_ImageTable`s: its
        `_ob` and `_mor` are their lookups.

        With `mor`, rule(a) is a pair (image of a, side data), kept apart
        from the object table and only where it is not None, and a morphism
        m goes to mor(m, pair of m.src, pair of m.tgt).  Without, the source
        is discrete, rule(a) is the image itself, and each identity goes to
        the identity of its image."""
        if mor is None:
            obs = _ImageTable(rule)
            mors = _ImageTable(lambda m: target.identity(obs[m.src]))
        else:
            side: dict = {}

            def ob_rule(a):
                image, data = rule(a)
                if data is not None:
                    side[a] = data
                return image

            obs = _ImageTable(ob_rule)
            mors = _ImageTable(lambda m: mor(m, (obs[m.src], side.get(m.src)),
                                             (obs[m.tgt], side.get(m.tgt))))
        return cls(source, target, obs.__getitem__, mors.__getitem__, name=name)

    @classmethod
    def identity(cls, G) -> "GroupoidFunctor":
        return cls(G, G, lambda a: a, lambda m: m, name="id")

    @classmethod
    def compose(cls, G: "GroupoidFunctor", F: "GroupoidFunctor") -> "GroupoidFunctor":
        """G after F, through the maps of both parts; F must land in G's source."""
        if F.target is not G.source:
            raise DomainError("functors not composable")
        F_ob, F_mor, G_ob, G_mor = F._ob, F._mor, G._ob, G._mor
        return cls(F.source, G.target, lambda a: G_ob(F_ob(a)),
                   lambda m: G_mor(F_mor(m)), name=f"{G.name}*{F.name}")


def functors_equal(F: GroupoidFunctor, G: GroupoidFunctor) -> bool:
    """Strict equality of two functors out of the same source S: the same
    object map on every object, and the same morphism map on a generating
    set of S.  The generators are, per iso class of S, the automorphisms
    of its representative r and the connector `_connector(S, a)` of each
    other member a.  The object maps are compared in object order up to
    the first object where they differ, and neither is read beyond it.

    That decides equality of functors: an m: a -> b in the class of r is
    c_b^{-1} . (c_b . m . c_a^{-1}) . c_a with the middle factor in
    Aut(r), so F and G agree on m once they agree on the connectors and on
    Aut(r).  The check reads one hom-set per object, where listing every
    morphism reads n^2 of them for a class of n objects.

    An identity is no generator: F and G send it to the identity of the
    same image.  So a trivial Aut(r) adds nothing, and on a discrete S the
    check compares the object maps alone.

    A one-element hom-set decides too.  When F and G share their target T
    and Aut(F r) is trivial in T, every generator of the class of r, the
    connector a -> r of each other member a and each automorphism of r,
    goes into T(F a, F r).  That hom-set is a torsor for Aut(F r), so it
    has one element, and F and G, being functors, both send the generator
    to it: the class is skipped, and none of its connectors is computed."""
    S, F_mor, G_mor = F.source, F._mor, G._mor
    if not all(map(eq, map(F._ob, S.objects), map(G._ob, S.objects))):
        return False
    T = F.target if F.target is G.target else None
    table = S.iso_classes()
    for rep in table.reps:
        if T is not None:
            image = F._ob(rep)
            if T.has_object(image) and len(_auts(T, image)) == 1:
                continue
        for a in table.members[rep]:
            if a != rep:
                gens = (_connector(S, a),)
            elif table.aut_orders[rep] > 1:
                gens = _auts(S, rep)
            else:
                continue
            for m in gens:
                if F_mor(m) != G_mor(m):
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


def _auts(G: FiniteGroupoid, a) -> tuple:
    """hom(a, a), read once per groupoid into its `_memo`."""
    auts = G._memo.get(("auts", a))
    if auts is None:
        auts = G._memo["auts", a] = G.hom(a, a)
    return auts


def _connector(G: FiniteGroupoid, a, inverse: bool = False) -> Optional[Mor]:
    """An iso c: a -> class_of(a), or c^{-1} with `inverse`; None when a is
    its representative.  Each is found once per groupoid, into its
    `_memo`."""
    key = ("connector", a, inverse)
    try:
        return G._memo[key]
    except KeyError:
        pass
    if inverse:
        c = _connector(G, a)
        m = None if c is None else G.inverse(c)
    else:
        rep = G.iso_classes().class_of(a)
        m = None if a == rep else G.hom(a, rep)[0]
    G._memo[key] = m
    return m


def _transport(G: FiniteGroupoid, m: Mor, c_src_inv: Optional[Mor],
               c_tgt: Optional[Mor]) -> Mor:
    """c_tgt . m . c_src^{-1}: m moved along the connectors of its ends,
    given the inverse of the source's; a None factor (an end that is its
    representative) is skipped."""
    if c_src_inv is not None:
        m = G.compose(m, c_src_inv)
    if c_tgt is not None:
        m = G.compose(c_tgt, m)
    return m


def _is_discrete(G: FiniteGroupoid) -> bool:
    """Every class of G is one object with a trivial Aut, so G has only
    identities; read off its iso-class table."""
    table = G.iso_classes()
    return (len(table.reps) == len(G.objects)
            and max(table.aut_orders.values(), default=1) == 1)


def fiber_cardinality(F: GroupoidFunctor, c) -> Fraction:
    """The cardinality of the homotopy fiber of F over c, computed
    class-wise: the single part of `weighted_fiber` under a constant label,
    so it reads one entry of F's fiber table.

    The test suite cross-checks it against the cardinality of the fiber
    built as an iso-comma, along the functor that picks c.
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
        w = Fraction(aut_c, aut_orders[rep])
        out[key] = w if key not in out else out[key] + w
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
    _require_cospan(f, g)
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
            gb = g.ob(b)
            for phi in _auts(C, fa) if fa == gb else C.hom(fa, gb):
                objs.append((a, b, phi))

    def compose(q, p):
        al = A.compose(Mor(q.src[0], q.tgt[0], q.label[0]),
                       Mor(p.src[0], p.tgt[0], p.label[0]))
        be = B.compose(Mor(q.src[1], q.tgt[1], q.label[1]),
                       Mor(p.src[1], p.tgt[1], p.label[1]))
        return Mor(p.src, q.tgt, (al.label, be.label))

    def identity(x):
        return Mor(x, x, (A.identity(x[0]).label, B.identity(x[1]).label))

    def hom(x, y):
        (a, b, phi), (a2, b2, phi2) = x, y
        out = []
        for alpha in _auts(A, a) if a == a2 else A.hom(a, a2):
            lhs = C.compose(phi2, f(alpha))
            for beta in _auts(B, b) if b == b2 else B.hom(b, b2):
                if C.compose(g(beta), phi) == lhs:
                    out.append(Mor(x, y, (alpha.label, beta.label)))
        return tuple(out)

    # exact iso invariant via the double-coset orbit of the transported
    # comparison iso under the images of Aut(rep_a) x Aut(rep_b), as a
    # set of labels
    atab, btab = A.iso_classes(), B.iso_classes()
    f_auts: dict = {}
    g_auts: dict = {}

    def iso_key(x):
        a, b, phi = x
        ra, rb = atab.class_of(a), btab.class_of(b)
        if ra not in f_auts:
            f_auts[ra] = [f(alpha) for alpha in _auts(A, ra)]
        if rb not in g_auts:
            g_auts[rb] = [g(beta) for beta in _auts(B, rb)]
        ca_inv, cb = _connector(A, a, inverse=True), _connector(B, b)
        tilde = _transport(C, phi, ca_inv and f(ca_inv), cb and g(cb))
        return ra, rb, frozenset(C.compose(v, C.compose(tilde, u)).label
                                 for u in f_auts[ra] for v in g_auts[rb])

    grade_fn = None
    if graded:
        grade_fn = lambda x: A.grade(x[0]) + B.grade(x[1]) - C.grade(f.ob(x[0]))

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
    Aut(rep) -> Aut(F rep), naming the first image, in hom(rep, rep) order,
    that lies outside Aut(F rep)."""
    S, T = F.source, F.target
    for rep in S.iso_classes().reps:
        auts = _auts(S, rep)
        images = [F(alpha) for alpha in auts]
        target_auts = _auts(T, F.ob(rep))
        if len(set(images)) != len(auts) or len(auts) != len(target_auts):
            return (f"automorphism map not bijective at class {rep!r}: "
                    f"|Aut|={len(auts)} vs |Aut(F rep)|={len(target_auts)}")
        inside = set(target_auts)
        outside = [g for g in images if g not in inside]
        if outside:
            return (f"automorphism map not bijective at class {rep!r}: "
                    f"{outside[0]!r} is not in Aut(F rep)")
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


def _iso_comma_pairs(f: GroupoidFunctor, g: GroupoidFunctor, grade_bound):
    """(r_a, f r_a, c, the r_b over c) for each class representative r_a of
    A, in order: c is the class of f(r_a) in C, and the r_b are the class
    representatives of B, in order, with g(r_b) in c and, when A, B and C
    are graded and a bound is given, the glued grade
    grade(r_a) + grade(r_b) - grade(f r_a) within it.  The objects
    (r_a, r_b, phi), phi in Iso(f r_a, g r_b), of the iso-comma P' on class
    representatives follow this order.  It raises where
    `homotopy_pullback` does."""
    A, B, C = f.source, g.source, f.target
    _require_cospan(f, g)
    by_class = _fiber_table(g)
    graded = (grade_bound is not None and A.is_graded() and B.is_graded()
              and C.is_graded())
    ctab = C.iso_classes()
    for ra in A.iso_classes().reps:
        fa = f.ob(ra)
        cls = ctab.class_of(fa)
        over = by_class.get(cls, ())
        if graded:
            bound = grade_bound - A.grade(ra) + C.grade(fa)
            over = [rb for rb in over if B.grade(rb) <= bound]
        yield ra, fa, cls, over


def _require_cospan(f: GroupoidFunctor, g: GroupoidFunctor) -> None:
    """Refuse legs f, g unless g lands in the very groupoid f lands in."""
    if g.target is not f.target:
        raise DomainError("cospan legs do not share a codomain")


def _iso_comma_size(f: GroupoidFunctor, g: GroupoidFunctor) -> int:
    """The number of objects of the iso-comma P' on class representatives,
    counted off the legs' fiber tables with no groupoid built and no pair
    walked: each pair (r_a, r_b) over a class c of C has |Aut c| isos
    f(r_a) -> g(r_b), so the count is the sum over c of
    |Aut c| |f^-1[c]| |g^-1[c]|, read off the fiber tables of both legs,
    which land in the one groupoid C, as in `_iso_comma_pairs`.
    On discrete A and B, P' is homotopy_pullback(f, g)."""
    _require_cospan(f, g)
    over_b = _fiber_table(g)
    aut_orders = f.target.iso_classes().aut_orders
    return sum(aut_orders[c] * len(ras) * len(over_b.get(c, ()))
               for c, ras in _fiber_table(f).items())


def _set_pullback_passes(p, q, f, g, name) -> bool:
    """Whether a square of sets (W, A and B discrete) with no grade bound
    passes `is_pullback_square`.  The iso-comma P of (f, g) is then
    discrete, and the comparison w -> (p w, q w, id) must be a bijection
    onto its objects.

    One walk of W reads p w and q w once each and raises at the first w
    with f(p w) != g(q w): on a discrete W that is all of the
    strict-commutation precheck.  The square passes when the images are
    distinct points of A x B, as many as P has objects, counted off the
    legs' fiber tables by `_iso_comma_size`.  A square that fails has its
    witness, or its carrier error, from the orbit walk."""
    W = p.source
    p_ob, q_ob, f_ob, g_ob = p._ob, q._ob, f._ob, g._ob
    images = set()
    for w in W.objects:
        a = p_ob(w)
        fa = f_ob(a)
        b = q_ob(w)
        if fa != g_ob(b):
            raise DomainError(f"square {name or ''} does not commute strictly")
        images.add((a, b))
    in_a, in_b = f.source._object_set, g.source._object_set
    return (len(images) == len(W.objects)
            and all(a in in_a and b in in_b for a, b in images)
            and len(images) == _iso_comma_size(f, g))


def _double_coset(C: FiniteGroupoid, phi: Mor, left, right) -> set:
    """The labels of the orbit {v . phi . u : u in left, v in right} of
    phi: f(r_a) -> g(r_b), for the images `left` of Aut(r_a) under f and
    `right` of Aut(r_b) under g."""
    half = [C.compose(phi, u) for u in left]
    return {C.compose(v, m).label for m in half for v in right}


def _iso_comma_classes(f: GroupoidFunctor, g: GroupoidFunctor, grade_bound):
    """(reps, class_of, aut_orders): the iso classes of the iso-comma P' of
    f and g on the class representatives of A and B, as the class table
    of homotopy_pullback(f|sk A, g|sk B) would list them, with no groupoid
    and no table built.

    The pairs (r_a, r_b) of `_iso_comma_pairs` are walked in P' object
    order, and Iso(f r_a, g r_b) in hom order.  The first phi not yet
    classified opens the class (r_a, r_b, phi): its orbit under the
    images of Aut(r_a) x Aut(r_b) is computed once, and each orbit label
    is mapped to it in class_of[r_a, r_b].  By
    orbit-stabilizer its automorphism group, the stabilizer of phi, has
    |Aut r_a| |Aut r_b| / |orbit| elements; when that product is 1 the
    orbit is {phi}."""
    A, B, C = f.source, g.source, f.target
    atab, btab = A.iso_classes(), B.iso_classes()
    reps, class_of, aut_orders = [], {}, {}
    g_auts: dict = {}
    for ra, fa, _, over in _iso_comma_pairs(f, g, grade_bound):
        n_a, f_auts = atab.aut_orders[ra], None
        for rb in over:
            gb = g.ob(rb)
            n = n_a * btab.aut_orders[rb]
            labels = class_of[ra, rb] = {}
            for phi in _auts(C, fa) if fa == gb else C.hom(fa, gb):
                if phi.label in labels:
                    continue
                x = (ra, rb, phi)
                reps.append(x)
                if n == 1:
                    labels[phi.label] = x
                    aut_orders[x] = 1
                    continue
                if f_auts is None:
                    f_auts = list(dict.fromkeys(f(alpha) for alpha in _auts(A, ra)))
                if rb not in g_auts:
                    g_auts[rb] = list(dict.fromkeys(g(beta) for beta in _auts(B, rb)))
                orbit = _double_coset(C, phi, f_auts, g_auts[rb])
                for label in orbit:     # set order: labels is only looked up
                    labels[label] = x
                aut_orders[x] = n // len(orbit)
    return reps, class_of, aut_orders


def _orbit_witness(p, q, f, g, grade_bound) -> Optional[str]:
    """The witness of `is_pullback_square`, None when it passes; see
    there."""
    A, B, C, W = f.source, g.source, f.target, p.source
    atab, btab = A.iso_classes(), B.iso_classes()
    reps, class_of, aut_orders = _iso_comma_classes(f, g, grade_bound)
    wtab = W.iso_classes()
    images = []
    for w in wtab.reps:
        a, b = p.ob(w), q.ob(w)
        ca_inv, cb = _connector(A, a, inverse=True), _connector(B, b)
        phi = _transport(C, C.identity(f.ob(a)), ca_inv and f(ca_inv), cb and g(cb))
        ra, rb = atab.class_of(a), btab.class_of(b)
        x = (ra, rb, phi)
        labels = class_of.get((ra, rb))
        # a label names a morphism only within its hom-set
        if (labels is None or phi.label not in labels
                or (phi.src, phi.tgt) != (f.ob(ra), g.ob(rb))):
            raise DomainError(f"{x!r} not an object of the carrier")
        images.append((w, x, labels[phi.label], a, b))
    first: dict = {}
    for w, _, cls, _, _ in images:
        if cls in first:
            return ("not fully faithful: source classes "
                    f"{first[cls]!r} and {w!r} share target class {cls!r}")
        first[cls] = w
    for x in reps:
        if x not in first:
            return f"not essentially surjective: target class {x!r} missed"
    for w, x, cls, a, b in images:
        # Aut(w) = {id_w} goes to the identity pair, which fixes phi
        if wtab.aut_orders[w] == 1 and aut_orders[cls] == 1:
            continue
        ca, ca_inv = _connector(A, a), _connector(A, a, inverse=True)
        cb, cb_inv = _connector(B, b), _connector(B, b, inverse=True)
        auts = _auts(W, w)
        pairs = [(_transport(A, p(m), ca_inv, ca).label, _transport(B, q(m), cb_inv, cb).label)
                 for m in auts]
        if len(set(pairs)) != len(auts) or len(auts) != aut_orders[cls]:
            return (f"automorphism map not bijective at class {w!r}: "
                    f"|Aut|={len(auts)} vs |Aut(F rep)|={aut_orders[cls]}")
        ra, rb, phi = x
        a_auts = {m.label: m for m in _auts(A, ra)}
        b_auts = {m.label: m for m in _auts(B, rb)}
        for la, lb in pairs:
            alpha, beta = a_auts.get(la), b_auts.get(lb)
            if (alpha is None or beta is None
                    or C.compose(g(beta), phi) != C.compose(phi, f(alpha))):
                return (f"automorphism map not bijective at class {w!r}: "
                        f"{Mor(x, x, (la, lb))!r} is not in Aut(F rep)")
    return None


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

    is a homotopy pullback: the comparison from W into the iso-comma
    groupoid of (f, g) must be an equivalence.  Non-commuting squares are
    a domain error, distinct from a failed pullback check.

    A square of sets, with A, B and W discrete (nerve levels are; A and B
    are tested first) and no grade bound on graded A, B and C, is first
    put to `_set_pullback_passes`, one walk of W that compares the object
    maps and counts the images; a square it does not pass goes to the
    orbit walk below with no further precheck.

    Any other square is first checked to commute by `functors_equal` on
    the generators of W, the automorphisms of its class representatives
    and the connectors to them, except in a class whose image in C has a
    trivial Aut: f.p and g.q are functors into the same C, so they send
    each generator of that class into the same one-element hom-set.

    The comparison is read on iso classes, with no iso-comma groupoid, no
    class table of it and no comparison functor.  The iso-comma P' of f
    and g on the class representatives of A and B is equivalent to the
    whole one and holds the first member of each of its classes.  A P'
    class over (r_a, r_b) is a double coset f(Aut r_a) \\ Iso(f r_a, g r_b)
    / g(Aut r_b), and its automorphism group is the stabilizer of one of
    its members; `_iso_comma_classes` walks the orbits once, in P' order.
    Each class representative w of W goes to the class of
    (r_a, r_b, g(c_b) . f(c_a)^{-1}), with c_a: p(w) -> r_a and
    c_b: q(w) -> r_b the class connectors; an image that is not an object
    of P' raises.  Then, as `is_equivalence` of that comparison would,
    the witness names the first w whose class an earlier w already hit,
    else the first class, in P' order, that no w hits, else the first w
    whose automorphisms, moved along the same connectors, are not
    distinct or not as many as the stabilizer's order.  The last test
    also requires each image (alpha, beta) to fix the phi of w's image,
    g(beta) . phi = phi . f(alpha), since the orbit gives the stabilizer's
    order, not its members.  A w with a trivial Aut whose class has a
    trivial stabilizer passes it unchecked: Aut(w) is the identity, whose
    image is the identity pair.
    """
    W = p.source
    if q.source is not W:
        raise DomainError("square corner mismatch")
    A, B = f.source, g.source
    if (_is_discrete(A) and _is_discrete(B) and _is_discrete(W)
            and (grade_bound is None
                 or not (A.is_graded() and B.is_graded() and f.target.is_graded()))):
        if _set_pullback_passes(p, q, f, g, name):
            return SquareResult(True, name=name)
    elif not functors_equal(GroupoidFunctor.compose(f, p), GroupoidFunctor.compose(g, q)):
        raise DomainError(f"square {name or ''} does not commute strictly")
    witness = _orbit_witness(p, q, f, g, grade_bound)
    return SquareResult(witness is None, witness, name=name)
