"""Finite posets, categories, adjunctions and their simplicial incarnations.

The nerve of a finite category is a truncated simplicial groupoid with
discrete levels (chains of composable arrows), which feeds the generic
axiom checkers and the incidence machinery; it counts its Phi fibers by
walking them (the chains of non-identity arrows over an arrow).
Composable pairs are read off a category's index of the arrows out of
each object, and the Phi walk and the chain counts compose through its
successor index, the composites e . m with the non-identity arrows e
after each m.  Its identity-free chains are counted layer by layer: the
counts decide whether it is Mobius and give the classical Mobius
function as their alternating sum.

Adjunctions are checked through the universal-arrow property (for posets
this is exactly the Galois-connection condition), and mapping cylinders
carry their canonical correspondence to the arrow category.  Units and
cocartesian and cartesian lifts are found by one universal-arrow search.
The relative nerve of a correspondence is its nerve cut to the chains
with the label pattern 0...01...1: cell (i,j) holds the (i+1+j)-chains
with i+1 vertices over 0, with the nerve's faces and degeneracies at the
same vertex.  Its borders are the nerves of the full subcategories over
0 and over 1, and its pointings come from the lifts and their tables.
Every space built from a category thus uses the one chain, face and
degeneracy rule of `nerve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .bicomodule import AugmentedBisimplicialGroupoid
from .groupoid import (
    DomainError,
    Memo,
    StructureError,
    discrete_functor,
    discrete_groupoid,
    full_subgroupoid,
)
from .simplicial import TruncatedSimplicialGroupoid


class FinPoset:
    """A finite poset stored as the reflexive-transitive closure of input
    relation pairs, closed through each element in element order; cyclic
    input is rejected (antisymmetry), naming the first pair in element
    order that lies on a cycle."""

    def __init__(self, elements, relations=()):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise StructureError("duplicate poset elements")
        le = {(x, x) for x in self.elements}
        for a, b in relations:
            if a not in self.elements or b not in self.elements:
                raise DomainError(f"relation ({a!r},{b!r}) mentions unknown elements")
            le.add((a, b))
        for b in self.elements:
            below = [a for a in self.elements if (a, b) in le]
            le.update((a, c) for c in self.elements if (b, c) in le for a in below)
        for a in self.elements:
            for b in self.elements:
                if a != b and (a, b) in le and (b, a) in le:
                    raise StructureError(f"cycle through {a!r} and {b!r}: not a poset")
        self.le = frozenset(le)

    def leq(self, a, b) -> bool:
        return (a, b) in self.le

    def intervals(self):
        return [(a, b) for a in self.elements for b in self.elements if self.leq(a, b)]

    def strict_pairs(self):
        """The pairs a < b, in element order."""
        return [(a, b) for a in self.elements for b in self.elements
                if a != b and (a, b) in self.le]

    def __repr__(self):
        return f"FinPoset({list(self.elements)!r}, {sorted(map(repr, self.strict_pairs()))})"


def chain_poset(n: int) -> FinPoset:
    return FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])


def divisor_poset(n: int) -> FinPoset:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return FinPoset(divs, [(a, b) for a in divs for b in divs if b % a == 0])


class FinCategory(Memo):
    """A finite category: objects, morphisms with source/target, a total
    composition table and designated identities; its hom-sets and the
    arrows out of each object are indexed once, in morphism order, and the
    composites with each arrow on its first `successors` query."""

    def __init__(self, objects, morphisms, compose, identities, name=""):
        super().__init__()
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)          # id -> (src, tgt)
        self._compose = dict(compose)             # (f, g) -> id of g after f
        self.identities = dict(identities)        # obj -> id
        self.name = name
        hom, out = {}, {}
        for m, (a, b) in self.morphisms.items():
            hom.setdefault((a, b), []).append(m)
            out.setdefault(a, []).append(m)
        self._hom = {ab: tuple(ms) for ab, ms in hom.items()}
        self._out = {a: tuple(ms) for a, ms in out.items()}

    def src(self, m):
        return self.morphisms[m][0]

    def tgt(self, m):
        return self.morphisms[m][1]

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def out_arrows(self, a):
        """The arrows out of a, in morphism order."""
        return self._out.get(a, ())

    def is_identity(self, m) -> bool:
        return self.identities.get(self.src(m)) == m

    def successors(self, m) -> dict:
        """{e: e . m} over the non-identity arrows e out of tgt(m), in
        morphism order; indexed once per arrow, into `_memo`."""
        index = self._memo.get(("successors", m))
        if index is None:
            index = self._memo["successors", m] = {
                e: self.compose(e, m) for e in self.out_arrows(self.tgt(m))
                if not self.is_identity(e)}
        return index

    def compose(self, g, f):
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise DomainError(f"not composable: {f!r} then {g!r}")
        key = (f, g)
        if key not in self._compose:
            raise StructureError(f"composition table misses {key!r}")
        return self._compose[key]

    def validate(self) -> None:
        """Check the identities, the units, the endpoints of every composite
        and then every composable triple, which reads the table directly:
        once every composable pair has a composite with the right
        endpoints, each composite a triple needs is in the table."""
        table, mors = self._compose, self.morphisms
        for obj, i in self.identities.items():
            if mors[i] != (obj, obj):
                raise StructureError(f"identity of {obj!r} has wrong endpoints")
        for f, (a, b) in mors.items():
            if self.compose(f, self.identities[a]) != f:
                raise StructureError(f"right unit fails at {f!r}")
            if self.compose(self.identities[b], f) != f:
                raise StructureError(f"left unit fails at {f!r}")
        for f, (a, b) in mors.items():
            for g in self.out_arrows(b):
                gf = self.compose(g, f)
                if mors[gf] != (a, self.tgt(g)):
                    raise StructureError(f"composite {gf!r} has wrong endpoints")
        for f, (a, b) in mors.items():
            for g in self.out_arrows(b):
                gf = table[f, g]
                for h in self.out_arrows(self.tgt(g)):
                    if table[gf, h] != table[f, table[g, h]]:
                        raise StructureError("associativity fails")

    @classmethod
    def from_poset(cls, P: FinPoset) -> "FinCategory":
        pairs = P.intervals()   # in element order, not the hash order of P.le
        mors = {("le", a, b): (a, b) for (a, b) in pairs}
        compose = {}
        for (a, b) in pairs:
            for c in P.elements:
                if P.leq(b, c):
                    compose[(("le", a, b), ("le", b, c))] = ("le", a, c)
        idents = {a: ("le", a, a) for a in P.elements}
        return cls(P.elements, mors, compose, idents)

    @classmethod
    def free_on_quiver(cls, objects, edges) -> "FinCategory":
        """The free category on an acyclic quiver; edges are (label, src, tgt)."""
        adj = {}
        for label, a, b in edges:
            adj.setdefault(a, []).append((label, b))
        mors = {}
        for a in objects:
            stack = [((), a)]
            seen_paths = []
            while stack:
                seq, end = stack.pop()
                seen_paths.append((seq, end))
                if len(seq) > len(edges):
                    raise StructureError("quiver has a cycle: free category is infinite")
                for label, nxt in adj.get(end, ()):
                    stack.append((seq + (label,), nxt))
            for seq, end in seen_paths:
                mors[("path", a, seq)] = (a, end)
        starting: dict = {}
        for g, (b, _c) in mors.items():
            starting.setdefault(b, []).append(g)
        compose = {}
        for f, (a, b) in mors.items():
            for g in starting.get(b, ()):
                compose[(f, g)] = ("path", a, f[2] + g[2])
        idents = {a: ("path", a, ()) for a in objects}
        return cls(objects, mors, compose, idents)


@dataclass
class FinFunctor:
    """A functor between finite categories, given by its object map.

    The morphism map `mor` is derived from it: each morphism goes to the
    one morphism of its target hom-set, as between posets, so the object
    map must be monotone there and every such hom-set must have one
    element.  A derived map preserves identities, ends and composites."""

    source: FinCategory
    target: FinCategory
    ob: dict
    name: str = ""
    mor: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.mor = {}
        for m, (a, b) in self.source.morphisms.items():
            cands = self.target.hom(self.ob[a], self.ob[b])
            if len(cands) != 1:
                raise StructureError(f"cannot derive morphism map at {m!r}: "
                                     f"{len(cands)} candidates")
            self.mor[m] = cands[0]


def poset_functor(P: FinPoset, Q: FinPoset, ob_map: dict) -> FinFunctor:
    """A monotone map of posets as a functor of their categories; a map
    that is not is refused at its first non-monotone pair in element
    order."""
    for a, b in P.intervals():
        if not Q.leq(ob_map[a], ob_map[b]):
            raise StructureError(f"map is not monotone at ({a!r},{b!r})")
    return FinFunctor(FinCategory.from_poset(P), FinCategory.from_poset(Q),
                      dict(ob_map))


# -- nerves -------------------------------------------------------------------


def _nerve_face(C, n, i, c):
    """d_i of the n-chain c: drop an end arrow or compose two neighbours."""
    if n == 1:
        return C.tgt(c[0]) if i == 0 else C.src(c[0])
    if i == 0:
        return c[1:]
    if i == n:
        return c[:-1]
    return c[:i - 1] + (C.compose(c[i], c[i - 1]),) + c[i + 1:]


def _nerve_degeneracy(C, n, i, c):
    """s_i of the n-chain c: insert the identity at vertex i."""
    if n == 0:
        return (C.identities[c],)
    vertex = C.src(c[0]) if i == 0 else C.tgt(c[i - 1])
    return c[:i] + (C.identities[vertex],) + c[i:]


def nerve(C, max_level: int = 5) -> TruncatedSimplicialGroupoid:
    """The nerve of a finite category or poset, with discrete levels.

    Level n is the set of composable n-chains, in lexicographic morphism
    order: level n >= 2 extends each chain of level n - 1 by an arrow out
    of its end.  Faces compose or truncate, degeneracies insert identities.
    Passes the Segal profile, hence the decomposition profile, and is
    complete.  Faces and degeneracies are discrete functors, so each
    computes a chain's image once, into a table it holds, and the pullback
    checks, the fiber tables of the incidence coalgebra and the
    relative-nerve cuts redo no chain surgery.

    The nerve counts its Phi fibers by walking them: the nondegenerate
    k-simplices over f = (m,) are the chains of k non-identity arrows whose
    composite is m, and its Phi count is the number of each length that
    `_chain_walk` yields.  One walk from src(m) finds the chains of every
    length k <= n: it yields a chain whenever its partial composite g is m,
    and extends it while g is a left factor of m (h . g = m for some h)
    and the chain is shorter than n.  Both steps read the category's
    successor index, `FinCategory.successors`, {non-identity e: e . g} per
    arrow g: a chain is extended by its entries, and g is a left factor
    when g is m or m is among its values.  The index only caches
    composites, so the walk still enumerates chains: it stays a walk, since
    the chain counts of `classical_mobius` that read the same index are the
    dynamic program, and the two are independent routes to mu.  The walk
    does not stop at an identity m, since non-identity isomorphisms can
    compose to one.  Phi on a nerve thus builds no level beyond 1.
    """
    if isinstance(C, FinPoset):
        C = FinCategory.from_poset(C)

    def level_fn(space, n):
        if n == 0:
            chains = C.objects
        elif n == 1:
            chains = [(m,) for m in C.morphisms]
        else:
            chains = [c + (e,) for c in space.level(n - 1).objects
                      for e in C.out_arrows(C.tgt(c[-1]))]
        return discrete_groupoid(chains, name=f"N{n}")

    def face_fn(space, n, i):
        return discrete_functor(space.level(n), space.level(n - 1),
                                partial(_nerve_face, C, n, i), name=f"d{i}@{n}")

    def degen_fn(space, n, i):
        return discrete_functor(space.level(n), space.level(n + 1),
                                partial(_nerve_degeneracy, C, n, i), name=f"s{i}@{n}")

    def phi_fn(space, n, f):
        counts = [0] * (n + 1)
        for k, _chain in _chain_walk(C, n, f):
            counts[k] += 1
        return counts

    return TruncatedSimplicialGroupoid(max_level, level_fn, face_fn, degen_fn,
                                       phi_fn=phi_fn, name=f"N({C.name})" if C.name else "N")


def _chain_walk(C, n: int, f):
    """The pairs (k, chain) of the chains of k <= n non-identity arrows of
    C composing to the arrow m of f = (m,), from one walk of the nerve."""
    (m,) = f
    a, successors = C.src(m), C.successors
    factors = {g for g in C.out_arrows(a) if g == m or m in successors(g).values()}
    # partial chains with their composites, yielded when the composite
    # is m; the children of each are pushed in reverse, so that the
    # chains of each length come out in morphism order
    stack = [(C.identities[a], ())]
    while stack:
        g, chain = stack.pop()
        if g == m and chain:
            yield len(chain), chain
        if len(chain) < n:
            for e, h in reversed(successors(g).items()):
                if h in factors:
                    stack.append((h, chain + (e,)))


# -- Mobius categories ---------------------------------------------------------


@dataclass
class MobiusCategoryReport:
    is_mobius: bool
    max_chain_length: Optional[int]
    witness: Optional[str] = None

    def __bool__(self):
        return self.is_mobius


def is_mobius_category(C: FinCategory, chain_bound: Optional[int] = None) -> MobiusCategoryReport:
    """Decide whether C is Mobius from its identity-free chain counts.

    A finite category is Mobius exactly when its identity-free chains have
    bounded length, that is when no composable cycle of non-identity
    morphisms exists; the report carries the maximal identity-free chain
    length, or a witness morphism on a cycle (a non-identity isomorphism or
    idempotent makes the Phi counts infinite).  The counts are memoised on C.
    """
    layers, cyclic = C._get(("chain_counts",), _chain_counts, C)
    if cyclic is not None:
        return MobiusCategoryReport(False, None, f"composable cycle through {cyclic!r}")
    max_len = len(layers) - 1
    if chain_bound is not None and max_len > chain_bound:
        return MobiusCategoryReport(False, max_len,
                                    f"identity-free chain of length {max_len} "
                                    f"exceeds bound {chain_bound}")
    return MobiusCategoryReport(True, max_len)


def _chain_counts(C: FinCategory):
    """The identity-free chain counts of C, and an arrow on a composable
    cycle or None.

    Layer k maps an arrow m to the number of chains of k non-identity
    arrows composing to m; layer k+1 extends each chain by an arrow out of
    its end, and the layers stop before the first that vanishes.  A chain
    of L = min(N + 1, |Ob|) non-identity arrows (N of them in C) passes
    L + 1 vertices, so it repeats an object, and the arrows between the
    repeats compose around a cycle; when layer L is nonzero one such chain
    is walked back through the layers to its first repeated object, and
    the arrow leaving that object is the witness.
    """
    successors = C.successors
    limit = min(sum(not C.is_identity(m) for m in C.morphisms) + 1, len(C.objects))
    layers = [{C.identities[x]: 1 for x in C.objects}]
    while len(layers) <= limit:
        nxt: dict = {}
        for m, count in layers[-1].items():
            for h in successors(m).values():
                nxt[h] = nxt.get(h, 0) + count
        if not nxt:
            return layers, None
        layers.append(nxt)
    if not C.objects:
        return layers, None
    m = next(iter(layers[-1]))
    seen = {C.tgt(m)}
    for prev in reversed(layers[:-1]):
        e, m = next((e, g) for g in prev for e, h in successors(g).items() if h == m)
        if C.src(e) in seen:
            return layers, e
        seen.add(C.src(e))


def classical_mobius(C: FinCategory, f, chain_bound: Optional[int] = None) -> Fraction:
    """mu(f) = sum_k (-1)^k #(chains of k non-identity arrows composing to f),
    read off the identity-free chain counts."""
    if f not in C.morphisms:
        raise DomainError(f"{f!r} is not a morphism of {C.name or 'the category'}")
    report = is_mobius_category(C, chain_bound)
    if not report:
        raise DomainError(f"not a Mobius category: {report.witness}")
    layers, _ = C._get(("chain_counts",), _chain_counts, C)
    return Fraction(sum((-1) ** k * layer.get(f, 0) for k, layer in enumerate(layers)))


# -- adjunctions ----------------------------------------------------------------


@dataclass
class Adjunction:
    """F -| G with the hom-bijections Hom(Fx, y) = Hom(x, Gy) as tables."""

    F: FinFunctor
    G: FinFunctor
    unit: dict                    # x -> morphism x -> GFx
    bijections: dict              # (x, y) -> {mor Fx->y : mor x->Gy}

    def validate(self) -> None:
        X, Y = self.F.source, self.F.target
        for (x, y), table in self.bijections.items():
            if len(set(table.values())) != len(table):
                raise StructureError(f"bijection at ({x!r},{y!r}) not injective")
            if set(table.keys()) != set(Y.hom(self.F.ob[x], y)):
                raise StructureError(f"bijection at ({x!r},{y!r}) has wrong domain")
            if set(table.values()) != set(X.hom(x, self.G.ob[y])):
                raise StructureError(f"bijection at ({x!r},{y!r}) not surjective")
        for (x, y), table in self.bijections.items():
            for h, ph in table.items():
                for g in Y.out_arrows(y):      # naturality in y
                    lhs = self.bijections[(x, Y.tgt(g))][Y.compose(g, h)]
                    if lhs != X.compose(self.G.mor[g], ph):
                        raise StructureError("bijection not natural in y")
                for f in X.morphisms:          # naturality in x
                    if X.tgt(f) != x:
                        continue
                    lhs = self.bijections[(X.src(f), y)][Y.compose(h, self.F.mor[f])]
                    if lhs != X.compose(ph, f):
                        raise StructureError("bijection not natural in x")


@dataclass
class AdjunctionCheck:
    ok: bool
    witness: Optional[tuple]
    adjunction: Optional[Adjunction] = None

    def __bool__(self):
        return self.ok


def _universal_arrow(candidates, blocks):
    """The first candidate arrow a through which composition is a bijection
    of hom-sets, as (a, {key: table}), or None.  blocks(a) yields, in
    order, (key, table, hom): the table sends each arrow h of one hom-set
    to its composite with a, and must biject onto `hom`.  Adjunction units
    and cocartesian and cartesian lifts are such arrows."""
    for a in candidates:
        tables = {}
        for key, table, hom in blocks(a):
            images = set(table.values())
            if len(images) != len(table) or images != set(hom):
                break
            tables[key] = table
        else:
            return a, tables
    return None


def check_adjunction(F: FinFunctor, G: FinFunctor) -> AdjunctionCheck:
    """Exhaustively verify F -| G through universal arrows; G goes between
    categories with the tables of F's, as two built from one poset have.

    For each x the unit is the first eta_x : x -> GFx making the tables
    h |-> G(h) . eta_x bijections Hom(Fx, y) -> Hom(x, Gy) for every y; for
    poset maps this is exactly Fx <= y iff x <= Gy.  On failure the witness
    is the first pair (x, y) whose hom-sets differ in size, else (x, None).
    """
    X, Y = F.source, F.target
    tables = lambda C: (C.objects, C.morphisms, C._compose, C.identities)
    if tables(G.source) != tables(Y) or tables(G.target) != tables(X):
        raise DomainError("G must go back from the target of F")
    unit = {}
    bijections = {}
    for x in X.objects:
        found = _universal_arrow(X.hom(x, G.ob[F.ob[x]]), lambda eta: (
            (y, {h: X.compose(G.mor[h], eta) for h in Y.hom(F.ob[x], y)}, X.hom(x, G.ob[y]))
            for y in Y.objects))
        if found is None:
            for y in Y.objects:
                if len(Y.hom(F.ob[x], y)) != len(X.hom(x, G.ob[y])):
                    return AdjunctionCheck(False, (x, y))
            return AdjunctionCheck(False, (x, None))
        unit[x], tables = found
        bijections.update(((x, y), table) for y, table in tables.items())
    return AdjunctionCheck(True, None, Adjunction(F, G, unit, bijections))


def rota_direct(adj: Adjunction, x, y, chain_bound: Optional[int] = None):
    """Both sides of the classical Rota formula at (x, y):

        sum over f: x -> x' with Fx' = y of mu_X(f)
      = sum over g: y' -> y with Gy' = x of mu_Y(g).

    Returns the pair (lhs, rhs); the caller asserts equality."""
    X, Y = adj.F.source, adj.F.target
    for C in (X, Y):
        report = is_mobius_category(C, chain_bound)
        if not report:
            raise DomainError(f"{C.name or 'category'} is not Mobius: {report.witness}")
    lhs = Fraction(0)
    for f, (a, b) in X.morphisms.items():
        if a == x and adj.F.ob[b] == y:
            lhs += classical_mobius(X, f, chain_bound)
    rhs = Fraction(0)
    for g, (a, b) in Y.morphisms.items():
        if b == y and adj.G.ob[a] == x:
            rhs += classical_mobius(Y, g, chain_bound)
    return lhs, rhs


# -- correspondences and mapping cylinders ----------------------------------------


@dataclass
class CorrespondenceCat:
    """A finite category over the arrow category: objects labelled 0/1 with
    no morphism from label 1 to label 0."""

    category: FinCategory
    label: dict

    def __post_init__(self):
        objects = set(self.category.objects)
        for a, bit in self.label.items():
            if a not in objects:
                raise StructureError(f"label {bit!r} given to {a!r}, which is not an object")
            if bit not in (0, 1):
                raise StructureError(f"object {a!r} has label {bit!r}, not 0 or 1")
        for m, (a, b) in self.category.morphisms.items():
            if self.label[a] == 1 and self.label[b] == 0:
                raise StructureError(f"morphism {m!r} goes from label 1 to label 0")

    def objects_over(self, bit):
        return [a for a in self.category.objects if self.label[a] == bit]

    def over(self, bit) -> FinCategory:
        """The full subcategory on the objects over `bit`, keeping the
        arrow names of the category."""
        C = self.category
        objects = self.objects_over(bit)
        mors = {m: (a, b) for m, (a, b) in C.morphisms.items()
                if self.label[a] == bit and self.label[b] == bit}
        compose = {(f, g): C.compose(g, f) for f in mors
                   for g in C.out_arrows(C.tgt(f)) if g in mors}
        return FinCategory(objects, mors, compose,
                           {a: C.identities[a] for a in objects},
                           name=f"{C.name}_{bit}")


def mapping_cylinder(F: FinFunctor) -> CorrespondenceCat:
    """The collage M_F with mixed homs Hom(Fx, y), as a correspondence to
    the arrow category.

    Cocartesian lifts always exist (the identity on Fx); cartesian lifts
    exist exactly when a right adjoint value exists at each y, which
    `fibration_report(corr)` determines by exhaustive lift search."""
    X, Y = F.source, F.target
    objects = [("x", a) for a in X.objects] + [("y", b) for b in Y.objects]
    mors = {}
    for m, (a, b) in X.morphisms.items():
        mors[("xm", m)] = (("x", a), ("x", b))
    for m, (a, b) in Y.morphisms.items():
        mors[("ym", m)] = (("y", a), ("y", b))
    for a in X.objects:
        for b in Y.objects:
            for m in Y.hom(F.ob[a], b):
                mors[("mix", a, m)] = (("x", a), ("y", b))
    out = {z: [] for z in objects}
    for g, (s2, _t2) in mors.items():
        out[s2].append(g)
    compose = {}
    for f, (s1, t1) in mors.items():
        for g in out[t1]:
            if f[0] == "xm" and g[0] == "xm":
                compose[(f, g)] = ("xm", X.compose(g[1], f[1]))
            elif f[0] == "ym" and g[0] == "ym":
                compose[(f, g)] = ("ym", Y.compose(g[1], f[1]))
            elif f[0] == "xm" and g[0] == "mix":
                compose[(f, g)] = ("mix", s1[1], Y.compose(g[2], F.mor[f[1]]))
            elif f[0] == "mix" and g[0] == "ym":
                compose[(f, g)] = ("mix", f[1], Y.compose(g[1], f[2]))
    idents = {("x", a): ("xm", X.identities[a]) for a in X.objects}
    idents.update({("y", b): ("ym", Y.identities[b]) for b in Y.objects})
    M = FinCategory(objects, mors, compose, idents, name=f"M({F.name})" if F.name else "M")
    label = {("x", a): 0 for a in X.objects}
    label.update({("y", b): 1 for b in Y.objects})
    return CorrespondenceCat(M, label)


@dataclass
class FibrationReport:
    cocartesian: dict     # object over 0 -> lift morphism or None
    cartesian: dict       # object over 1 -> lift morphism or None


def _lifts(corr: CorrespondenceCat, bit: int) -> dict:
    """{object z over `bit`: (lift, tables) or None}.  Over 0 the lift is
    the first a: z -> t, t over 1, in object then hom order, with tables[d]
    = (h |-> h . a) a bijection Hom(t, d) -> Hom(z, d) for every d over 1
    (cocartesian); over 1 it is that lift in the opposite category."""
    C = corr.category
    hom = (lambda a, b: C.hom(b, a)) if bit else C.hom
    compose = (lambda h, a: C.compose(a, h)) if bit else C.compose
    near, far = (C.tgt, C.src) if bit else (C.src, C.tgt)
    others = corr.objects_over(1 - bit)

    def blocks(a):
        return ((d, {h: compose(h, a) for h in hom(far(a), d)}, hom(near(a), d)) for d in others)

    return {z: _universal_arrow([a for t in others for a in hom(z, t)], blocks)
            for z in corr.objects_over(bit)}


def fibration_report(corr: CorrespondenceCat) -> FibrationReport:
    """The first cocartesian lift out of each object over 0 and the first
    cartesian lift into each object over 1, or None where there is none
    (see `_lifts`)."""
    return FibrationReport(*({z: None if found is None else found[0]
                              for z, found in _lifts(corr, bit).items()} for bit in (0, 1)))


def correspondence_bisimplicial(corr: CorrespondenceCat, max_i: int,
                                max_j: int) -> AugmentedBisimplicialGroupoid:
    """The relative nerve of a correspondence: its nerve cut to the label
    pattern 0...01...1.

    Cell (i,j) is the full subgroupoid of the nerve level N_{i+1+j} on the
    chains whose vertex i lies over 0 and vertex i+1 over 1 (no arrow goes
    from 1 to 0, so these are the chains with i+1 vertices over 0 and j+1
    over 1).  Its faces and degeneracies d_v, s_v are those of N_{i+1+j}
    on the cut cells, so the grid is the cut of the total decalage of the
    nerve, and the borders X and Y are the nerves of the full subcategories
    over 0 and over 1.  A chain is a tuple of arrows; a level-0 object is a
    bare object.

    When every object over 0 (resp. 1) has a cocartesian (resp. cartesian)
    lift, `section("right", n)` (resp. "left") is s_{-1} along row 0 (resp.
    t_{top+1} along column 0): at n = 0 the lift a, above it the chain with
    its first (resp. last) arrow m replaced by a and the factor h of m
    through a, read off the inverse of a's table (`_lifts`).
    """
    C = corr.category
    N = nerve(C, max_level=max_i + 1 + max_j)
    # per side, each object's lift and each mixed arrow's factor through one
    pointings = {}
    for side, bit in (("right", 0), ("left", 1)):
        found = _lifts(corr, bit)
        pointings[side] = None if None in found.values() else (
            {z: a for z, (a, _) in found.items()},
            {m: h for _, tables in found.values() for table in tables.values()
             for h, m in table.items()})

    def cell_fn(B, i, j):
        keep = [c for c in N.level(i + 1 + j).objects
                if corr.label[C.src(c[i])] == 0 and corr.label[C.tgt(c[i])] == 1]
        return full_subgroupoid(N.level(i + 1 + j), keep, name=f"B({i},{j})")

    def cut(op, source, target):
        """The nerve operator `op` on the cut cells."""
        return discrete_functor(source, target, op.ob, name=op.name)

    def section_fn(B, side, n):
        if pointings[side] is None:
            return None
        lift, factor = pointings[side]
        right = side == "right"

        def ob(c):
            if n == 0:      # c is an object over 0 (right) or over 1 (left)
                return (lift[c],)
            if right:
                return (lift[C.src(c[0])], factor[c[0]]) + c[1:]
            return c[:-1] + (factor[c[-1]], lift[C.tgt(c[-1])])

        source, target = ((0, n - 1), (0, n)) if right else ((n - 1, 0), (n, 0))
        return discrete_functor(B.cell(*source), B.cell(*target), ob)

    return AugmentedBisimplicialGroupoid(
        max_i, max_j,
        nerve(corr.over(0), max_level=max_i), nerve(corr.over(1), max_level=max_j),
        cell_fn,
        face_fn=lambda B, i, j, v: cut(N.face(i + 1 + j, v), B.cell(i, j),
                                       B.face_target(i, j, v)),
        degen_fn=lambda B, i, j, v: cut(N.degeneracy(i + 1 + j, v), B.cell(i, j),
                                        B.degen_target(i, j, v)),
        section_fn=section_fn, name=f"N/D1({C.name})" if C.name else "N/D1")
