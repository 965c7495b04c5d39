"""Finite posets, categories, adjunctions and their simplicial incarnations.

The nerve of a finite category is a truncated simplicial groupoid with
discrete levels (chains of composable arrows), which feeds the generic
axiom checkers and the incidence machinery; it generates its Phi fibers
(the chains of non-identity arrows over an arrow).  Mobius categories are
detected by exhaustive identity-free chain search, and the classical
Mobius function is the alternating count of identity-free factorizations.

Adjunctions are checked through the universal-arrow property (for posets
this is exactly the Galois-connection condition), and mapping cylinders
carry their canonical correspondence to the arrow category.  The relative
nerve of a correspondence is its nerve cut to the chains with the label
pattern 0...01...1: cell (i,j) holds the (i+1+j)-chains with i+1 vertices
over 0, with the nerve's faces and degeneracies at the same vertex.  Its
borders are the nerves of the full subcategories over 0 and over 1, and
its pointings come from cocartesian/cartesian lifts found by exhaustive
search.  Every space built from a category thus uses the one chain, face
and degeneracy rule of `nerve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    relation pairs; cyclic input is rejected (antisymmetry)."""

    def __init__(self, elements, relations=()):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise StructureError("duplicate poset elements")
        le = {(x, x) for x in self.elements}
        for a, b in relations:
            if a not in self.elements or b not in self.elements:
                raise DomainError(f"relation ({a!r},{b!r}) mentions unknown elements")
            le.add((a, b))
        changed = True
        while changed:
            changed = False
            for a, b in list(le):
                for c in self.elements:
                    if (b, c) in le and (a, c) not in le:
                        le.add((a, c))
                        changed = True
        for a, b in le:
            if a != b and (b, a) in le:
                raise StructureError(f"cycle through {a!r} and {b!r}: not a poset")
        self.le = frozenset(le)

    def leq(self, a, b) -> bool:
        return (a, b) in self.le

    def less(self, a, b) -> bool:
        return a != b and (a, b) in self.le

    def intervals(self):
        return [(a, b) for a in self.elements for b in self.elements if self.leq(a, b)]

    def strict_pairs(self):
        return [(a, b) for (a, b) in self.le if a != b]

    def interval(self, a, b) -> "FinPoset":
        if not self.leq(a, b):
            raise DomainError(f"[{a!r},{b!r}] is not an interval")
        els = [x for x in self.elements if self.leq(a, x) and self.leq(x, b)]
        return FinPoset(els, [(u, v) for u in els for v in els if self.leq(u, v)])

    def __repr__(self):
        return f"FinPoset({list(self.elements)!r}, {sorted(map(repr, self.strict_pairs()))})"


def chain_poset(n: int) -> FinPoset:
    return FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])


def divisor_poset(n: int) -> FinPoset:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return FinPoset(divs, [(a, b) for a in divs for b in divs if b % a == 0])


class FinCategory(Memo):
    """A finite category: objects, morphisms with source/target, a total
    composition table and designated identities."""

    def __init__(self, objects, morphisms, compose, identities, name=""):
        super().__init__()
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)          # id -> (src, tgt)
        self._compose = dict(compose)             # (f, g) -> id of g after f
        self.identities = dict(identities)        # obj -> id
        self.name = name
        self._hom: dict = {}
        for m, (a, b) in self.morphisms.items():
            self._hom.setdefault((a, b), []).append(m)
        self._poset: Optional[FinPoset] = None   # set by from_poset

    def src(self, m):
        return self.morphisms[m][0]

    def tgt(self, m):
        return self.morphisms[m][1]

    def hom(self, a, b):
        return tuple(self._hom.get((a, b), ()))

    def is_identity(self, m) -> bool:
        return self.identities.get(self.src(m)) == m

    def compose(self, g, f):
        """g after f."""
        if self.tgt(f) != self.src(g):
            raise DomainError(f"not composable: {f!r} then {g!r}")
        key = (f, g)
        if key not in self._compose:
            raise StructureError(f"composition table misses {key!r}")
        return self._compose[key]

    def validate(self) -> None:
        for obj, i in self.identities.items():
            if self.morphisms[i] != (obj, obj):
                raise StructureError(f"identity of {obj!r} has wrong endpoints")
        for f, (a, b) in self.morphisms.items():
            if self.compose(f, self.identities[a]) != f:
                raise StructureError(f"right unit fails at {f!r}")
            if self.compose(self.identities[b], f) != f:
                raise StructureError(f"left unit fails at {f!r}")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.src(g) != self.tgt(f):
                    continue
                gf = self.compose(g, f)
                if self.morphisms[gf] != (self.src(f), self.tgt(g)):
                    raise StructureError(f"composite {gf!r} has wrong endpoints")
                for h in self.morphisms:
                    if self.src(h) != self.tgt(g):
                        continue
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        raise StructureError("associativity fails")

    @classmethod
    def from_poset(cls, P: FinPoset, name="") -> "FinCategory":
        pairs = P.intervals()   # in element order, not the hash order of P.le
        mors = {("le", a, b): (a, b) for (a, b) in pairs}
        compose = {}
        for (a, b) in pairs:
            for c in P.elements:
                if P.leq(b, c):
                    compose[(("le", a, b), ("le", b, c))] = ("le", a, c)
        idents = {a: ("le", a, a) for a in P.elements}
        cat = cls(P.elements, mors, compose, idents, name=name)
        cat._poset = P
        return cat

    @classmethod
    def free_on_quiver(cls, objects, edges, name="") -> "FinCategory":
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
        compose = {}
        for f, (a, b) in mors.items():
            for g, (b2, c) in mors.items():
                if b2 == b:
                    compose[(f, g)] = ("path", a, f[2] + g[2])
        idents = {a: ("path", a, ()) for a in objects}
        return cls(objects, mors, compose, idents, name=name)

    def as_poset(self) -> Optional[FinPoset]:
        return self._poset


@dataclass
class FinFunctor:
    """A functor between finite categories.

    For posetal sources the morphism map is derived from the object map
    (and the object map must be monotone)."""

    source: FinCategory
    target: FinCategory
    ob: dict
    mor: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not self.mor:
            derived = {}
            for m, (a, b) in self.source.morphisms.items():
                cands = self.target.hom(self.ob[a], self.ob[b])
                if len(cands) != 1:
                    raise StructureError(
                        f"cannot derive morphism map at {m!r}: "
                        f"{len(cands)} candidates (supply `mor` explicitly)")
                derived[m] = cands[0]
            self.mor = derived

    def validate(self) -> None:
        S, T = self.source, self.target
        for a in S.objects:
            if self.mor[S.identities[a]] != T.identities[self.ob[a]]:
                raise StructureError(f"identity not preserved at {a!r}")
        for m, (a, b) in S.morphisms.items():
            if T.morphisms[self.mor[m]] != (self.ob[a], self.ob[b]):
                raise StructureError(f"endpoints not preserved at {m!r}")
        for f in S.morphisms:
            for g in S.morphisms:
                if S.src(g) != S.tgt(f):
                    continue
                if self.mor[S.compose(g, f)] != T.compose(self.mor[g], self.mor[f]):
                    raise StructureError(f"composition not preserved at {f!r},{g!r}")


def poset_functor(P: FinPoset, Q: FinPoset, ob_map: dict, name="") -> FinFunctor:
    """A monotone map of posets as a functor of their categories."""
    for a, b in P.le:
        if not Q.leq(ob_map[a], ob_map[b]):
            raise StructureError(f"map is not monotone at ({a!r},{b!r})")
    return FinFunctor(FinCategory.from_poset(P), FinCategory.from_poset(Q),
                      dict(ob_map), name=name)


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


def _nerve_operator(C, source, target, op, n, i, name=""):
    """The discrete functor of c -> op(C, n, i, c).  Each chain's image is
    computed once, into a table that `ob` and the morphism map read.  The
    functor holds the table, and the nerve memoises the functor, so the
    table goes away with the nerve.  (A level is in a cycle with its
    iso-class table and outlives the nerve until the cycle collector runs.)"""
    images: dict = {}

    def ob(c):
        try:
            return images[c]
        except KeyError:
            image = images[c] = op(C, n, i, c)
            return image

    return discrete_functor(source, target, ob, name=name)


def nerve(C, max_level: int = 5, name: str = "") -> TruncatedSimplicialGroupoid:
    """The nerve of a finite category or poset, with discrete levels.

    Level n is the set of composable n-chains; faces compose or truncate,
    degeneracies insert identities.  Passes the Segal profile, hence the
    decomposition profile, and is complete.  Each face and degeneracy
    computes a chain's image once, into a table it holds
    (`_nerve_operator`), so the pullback checks, the fiber tables of the
    incidence coalgebra and the relative-nerve cuts redo no chain surgery.

    The nerve generates its Phi fibers: the nondegenerate n-simplices over
    f = (m,) are the chains of n non-identity arrows whose composite is m.
    They are found by a walk over hom-sets from src(m) that keeps a partial
    composite g only while g is a left factor of m (h . g = m for some h);
    the left factors of m are memoised on the nerve.  The walk does not
    stop at an identity m, since non-identity isomorphisms can compose to
    one.  Phi_n on a nerve thus builds no level beyond 1.
    """
    if isinstance(C, FinPoset):
        C = FinCategory.from_poset(C)

    def chains(n):
        if n == 0:
            return list(C.objects)
        out = [(m,) for m in C.morphisms]
        for _ in range(n - 1):
            out = [c + (m,) for c in out for m in C.morphisms
                   if C.src(m) == C.tgt(c[-1])]
        return out

    def level_fn(space, n):
        return discrete_groupoid(chains(n), name=f"N{n}")

    def face_fn(space, n, i):
        return _nerve_operator(C, space.level(n), space.level(n - 1), _nerve_face, n, i,
                               name=f"d{i}@{n}")

    def degen_fn(space, n, i):
        return _nerve_operator(C, space.level(n), space.level(n + 1), _nerve_degeneracy,
                               n, i, name=f"s{i}@{n}")

    def left_factors(m):
        a, b = C.src(m), C.tgt(m)
        return frozenset(g for x in C.objects for g in C.hom(a, x)
                         if any(C.compose(h, g) == m for h in C.hom(x, b)))

    def non_identity_arrows():
        out = {x: [] for x in C.objects}
        for e in C.morphisms:
            if not C.is_identity(e):
                out[C.src(e)].append(e)
        return out

    def fiber_fn(space, n, f):
        (m,) = f
        factors = space._get(("left_factors", m), left_factors, m)
        out = space._get(("non_identity_arrows",), non_identity_arrows)
        b = C.tgt(m)

        def walk(g, chain):
            """The chains over m that begin with `chain`, whose composite is g."""
            x = C.tgt(g)
            if len(chain) == n - 1:
                for e in C.hom(x, b):
                    if not C.is_identity(e) and C.compose(e, g) == m:
                        yield chain + (e,)
                return
            for e in out[x]:
                h = C.compose(e, g)
                if h in factors:
                    yield from walk(h, chain + (e,))

        yield from walk(C.identities[C.src(m)], ())

    return TruncatedSimplicialGroupoid(max_level, level_fn, face_fn, degen_fn,
                                       fiber_fn=fiber_fn, name=name or f"N({C.name})")


# -- Mobius categories ---------------------------------------------------------


@dataclass
class MobiusCategoryReport:
    is_mobius: bool
    max_chain_length: Optional[int]
    witness: Optional[str] = None

    def __bool__(self):
        return self.is_mobius


def is_mobius_category(C: FinCategory, chain_bound: Optional[int] = None) -> MobiusCategoryReport:
    """Search for unbounded identity-free composable chains.

    A finite category is Mobius exactly when no composable cycle of
    non-identity morphisms exists; the report carries the maximal
    identity-free chain length, or a witness morphism on a cycle (a
    non-identity isomorphism or idempotent makes the Phi counts infinite).
    The report is memoised on C.
    """
    return C._get(("mobius_category", chain_bound), _mobius_category_search, C, chain_bound)


def _mobius_category_search(C: FinCategory, chain_bound: Optional[int]) -> MobiusCategoryReport:
    nonid = [m for m in C.morphisms if not C.is_identity(m)]
    if chain_bound is None:
        chain_bound = len(nonid)
    succ = {f: [g for g in nonid if C.src(g) == C.tgt(f)] for f in nonid}
    state: dict = {}
    order = []

    def visit(f):
        stack = [(f, iter(succ[f]))]
        state[f] = "open"
        while stack:
            node, it = stack[-1]
            advanced = False
            for g in it:
                if state.get(g) == "open":
                    return g
                if g not in state:
                    state[g] = "open"
                    stack.append((g, iter(succ[g])))
                    advanced = True
                    break
            if not advanced:
                state[node] = "done"
                order.append(node)
                stack.pop()
        return None

    for f in nonid:
        if f not in state:
            bad = visit(f)
            if bad is not None:
                return MobiusCategoryReport(False, None,
                                            f"composable cycle through {bad!r}")
    longest = {}
    for f in order:  # reverse-topological
        longest[f] = 1 + max((longest[g] for g in succ[f]), default=0)
    max_len = max(longest.values(), default=0)
    if max_len > chain_bound:
        return MobiusCategoryReport(False, max_len,
                                    f"identity-free chain of length {max_len} "
                                    f"exceeds bound {chain_bound}")
    return MobiusCategoryReport(True, max_len)


def _factorization_counts(C: FinCategory, k_max: int):
    """[{m: number of identity-free k-factorizations of m} for k = 0..k_max]."""
    pairs = {}
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src(g) == C.tgt(f):
                pairs.setdefault(C.compose(g, f), []).append((f, g))
    counts = [{m: 1 if C.is_identity(m) else 0 for m in C.morphisms}]
    for _ in range(k_max):
        prev = counts[-1]
        nxt = {m: 0 for m in C.morphisms}
        for m in C.morphisms:
            for f, g in pairs.get(m, ()):
                if not C.is_identity(f):
                    nxt[m] += prev[g]
        counts.append(nxt)
    return counts


def classical_mobius(C: FinCategory, f, chain_bound: Optional[int] = None) -> Fraction:
    """mu(f) = sum_k (-1)^k #(identity-free k-factorizations of f)."""
    if f not in C.morphisms:
        raise DomainError(f"{f!r} is not a morphism of {C.name or 'the category'}")
    report = is_mobius_category(C, chain_bound)
    if not report:
        raise DomainError(f"not a Mobius category: {report.witness}")
    k_max = report.max_chain_length
    counts = C._get(("factorizations", k_max), _factorization_counts, C, k_max)
    total = 0
    for k, table in enumerate(counts):
        total += table[f] if k % 2 == 0 else -table[f]
    return Fraction(total)


def poset_mobius(P: FinPoset, a, b, C: Optional[FinCategory] = None) -> Fraction:
    if C is None:
        C = FinCategory.from_poset(P)
    return classical_mobius(C, ("le", a, b))


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
                for g in Y.morphisms:          # naturality in y
                    if Y.src(g) != y:
                        continue
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


def check_adjunction(F: FinFunctor, G: FinFunctor) -> AdjunctionCheck:
    """Exhaustively verify F -| G through universal arrows.

    For each x a unit candidate eta_x : x -> GFx must make
    h |-> G(h) . eta_x a bijection Hom(Fx, y) -> Hom(x, Gy) for every y;
    for poset maps this is exactly Fx <= y iff x <= Gy.  On failure the
    witness is a pair (x, y) where the hom-sets cannot biject.
    """
    X, Y = F.source, F.target
    if G.source is not Y or G.target is not X:
        if G.source.objects != Y.objects or G.target.objects != X.objects:
            raise DomainError("G must go back from the target of F")
    unit = {}
    bijections = {}
    for x in X.objects:
        found = None
        for eta in X.hom(x, G.ob[F.ob[x]]):
            tables = {}
            good = True
            for y in Y.objects:
                table = {}
                targets = set()
                for h in Y.hom(F.ob[x], y):
                    phi = X.compose(G.mor[h], eta)
                    table[h] = phi
                    targets.add(phi)
                if len(targets) != len(table) or targets != set(X.hom(x, G.ob[y])):
                    good = False
                    break
                tables[y] = table
            if good:
                found = (eta, tables)
                break
        if found is None:
            for y in Y.objects:
                if len(Y.hom(F.ob[x], y)) != len(X.hom(x, G.ob[y])):
                    return AdjunctionCheck(False, (x, y))
            return AdjunctionCheck(False, (x, None))
        unit[x] = found[0]
        for y, table in found[1].items():
            bijections[(x, y)] = table
    return AdjunctionCheck(True, None, Adjunction(F, G, unit, bijections))


def rota_direct(adj: Adjunction, x, y, chain_bound: Optional[int] = None):
    """Both sides of the classical Rota formula at (x, y):

        sum over f: x -> x' with Fx' = y of mu_X(f)
      = sum over g: y' -> y with Gy' = x of mu_Y(g).

    Returns the pair (lhs, rhs); the caller asserts equality."""
    X, Y = adj.F.source, adj.F.target
    for C in (X, Y):
        if not is_mobius_category(C, chain_bound):
            raise DomainError(f"{C.name or 'category'} is not Mobius")
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
        compose = {(f, g): C.compose(g, f) for f in mors for g in mors
                   if C.tgt(f) == C.src(g)}
        return FinCategory(objects, mors, compose,
                           {a: C.identities[a] for a in objects},
                           name=f"{C.name}_{bit}")


def mapping_cylinder(F: FinFunctor):
    """The collage M_F with mixed homs Hom(Fx, y), its correspondence to the
    arrow category, and the (co)cartesian-lift report.

    Cocartesian lifts always exist (the identity on Fx); cartesian lifts
    exist exactly when a right adjoint value exists at each y, which the
    report determines by exhaustive lift search."""
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
    compose = {}
    for f, (s1, t1) in mors.items():
        for g, (s2, t2) in mors.items():
            if t1 != s2:
                continue
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
    M = FinCategory(objects, mors, compose, idents, name=f"M({F.name})")
    label = {("x", a): 0 for a in X.objects}
    label.update({("y", b): 1 for b in Y.objects})
    corr = CorrespondenceCat(M, label)
    return corr, fibration_report(corr)


@dataclass
class FibrationReport:
    cocartesian: dict     # object over 0 -> lift morphism or None
    cartesian: dict       # object over 1 -> lift morphism or None

    @property
    def all_cocartesian(self):
        return all(v is not None for v in self.cocartesian.values())

    @property
    def all_cartesian(self):
        return all(v is not None for v in self.cartesian.values())

    @property
    def bicartesian(self):
        return self.all_cocartesian and self.all_cartesian


def _is_cocartesian(corr: CorrespondenceCat, a):
    """Post-composition with a must biject onto mixed homs from src(a)."""
    C = corr.category
    x, t = C.src(a), C.tgt(a)
    for d in corr.objects_over(1):
        images = {C.compose(h, a) for h in C.hom(t, d)}
        if len(images) != len(C.hom(t, d)) or images != set(C.hom(x, d)):
            return False
    return True


def _is_cartesian(corr: CorrespondenceCat, a):
    C = corr.category
    s, y = C.src(a), C.tgt(a)
    for c in corr.objects_over(0):
        images = {C.compose(a, h) for h in C.hom(c, s)}
        if len(images) != len(C.hom(c, s)) or images != set(C.hom(c, y)):
            return False
    return True


def fibration_report(corr: CorrespondenceCat) -> FibrationReport:
    C = corr.category
    cocart = {}
    for x in corr.objects_over(0):
        cocart[x] = None
        for t in corr.objects_over(1):
            for a in C.hom(x, t):
                if _is_cocartesian(corr, a):
                    cocart[x] = a
                    break
            if cocart[x] is not None:
                break
    cart = {}
    for y in corr.objects_over(1):
        cart[y] = None
        for s in corr.objects_over(0):
            for a in C.hom(s, y):
                if _is_cartesian(corr, a):
                    cart[y] = a
                    break
            if cart[y] is not None:
                break
    return FibrationReport(cocart, cart)


def correspondence_bisimplicial(corr: CorrespondenceCat, max_i: int, max_j: int,
                                report: Optional[FibrationReport] = None,
                                name: str = "") -> AugmentedBisimplicialGroupoid:
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

    When the fibration report grants cocartesian (resp. cartesian) lifts
    everywhere, the right pointing s_{-1} (resp. left pointing t_{top+1})
    is attached by composing with the lift and its unique factorizations.
    """
    C = corr.category
    if report is None:
        report = fibration_report(corr)
    N = nerve(C, max_level=max_i + 1 + max_j)

    def cell_fn(B, i, j):
        keep = [c for c in N.level(i + 1 + j).objects
                if corr.label[C.src(c[i])] == 0 and corr.label[C.tgt(c[i])] == 1]
        return full_subgroupoid(N.level(i + 1 + j), keep, name=f"B({i},{j})")

    def cut(op, source, target):
        """The nerve operator `op` on the cut cells."""
        return discrete_functor(source, target, op.ob, name=op.name)

    def vertex(c, k):
        """Vertex k of the chain c."""
        return C.src(c[k]) if k < len(c) else C.tgt(c[-1])

    def unique_post_factor(a, m):
        """The unique h with h . a = m, through the cocartesian lift a."""
        cands = [h for h in C.hom(C.tgt(a), C.tgt(m)) if C.compose(h, a) == m]
        if len(cands) != 1:
            raise StructureError("cocartesian lift lacks unique factorization")
        return cands[0]

    def unique_pre_factor(a, m):
        """The unique h with a . h = m, through the cartesian lift a."""
        cands = [h for h in C.hom(C.src(m), C.src(a)) if C.compose(a, h) == m]
        if len(cands) != 1:
            raise StructureError("cartesian lift lacks unique factorization")
        return cands[0]

    right_section_fn = None
    if report.all_cocartesian:
        def right_section_fn(B, i, j):
            def ob(c):
                if i + j == 0:      # c is an object over 0
                    return (report.cocartesian[c],)
                a = report.cocartesian[vertex(c, i)]
                if j == 0:
                    return c + (a,)
                return c[:i] + (a, unique_post_factor(a, c[i])) + c[i + 1:]
            return discrete_functor(B.cell(i, j - 1), B.cell(i, j), ob)

    left_section_fn = None
    if report.all_cartesian:
        def left_section_fn(B, i, j):
            def ob(c):
                if i + j == 0:      # c is an object over 1
                    return (report.cartesian[c],)
                a = report.cartesian[vertex(c, i)]  # first vertex over 1
                if i == 0:
                    return (a,) + c
                return c[:i - 1] + (unique_pre_factor(a, c[i - 1]), a) + c[i:]
            return discrete_functor(B.cell(i - 1, j), B.cell(i, j), ob)

    return AugmentedBisimplicialGroupoid(
        max_i, max_j,
        nerve(corr.over(0), max_level=max_i), nerve(corr.over(1), max_level=max_j),
        cell_fn,
        face_fn=lambda B, i, j, v: cut(N.face(i + 1 + j, v), B.cell(i, j),
                                       B.face_target(i, j, v)),
        degen_fn=lambda B, i, j, v: cut(N.degeneracy(i + 1 + j, v), B.cell(i, j),
                                        B.degen_target(i, j, v)),
        right_section_fn=right_section_fn, left_section_fn=left_section_fn,
        name=name or f"N/D1({C.name})")
