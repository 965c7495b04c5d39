"""Concrete instances: layered finite sets, layered finite posets, and the
bicomodule of layered sets and posets.

Objects of every generated level are labelled "layered structures": a
carrier {0..m-1}, a strict transitive relation, and a color per element,
the number of the layer it sits in.  An n-simplex has layers 1..n = ns+np:
the set layers 1..ns carry no relations, the poset layers ns+1..n are
monotone (x < y forces layer(x) <= layer(y)).  Empty layers are first
class: the object records the split (ns, np) separately from the colors,
so inserting an empty layer changes the object.  Isomorphisms are
color-preserving relation isomorphisms; layer numbers must match exactly.

Levels are deliberately not skeletal.  Every simplicial operator of I, C
and the bicomodule is one rule of pure layer surgery on layer numbers:
d_v deletes the first (v = 0) or last (v = n) layer with an
order-preserving reindex, or else joins layers v and v+1 by recoloring
(the last set layer joins the first poset layer with the relations it
records), and s_v inserts an empty layer v+1, a set layer on the X side
of a bicomodule cell and a poset layer on its Y side.  Such operations
commute on the nose, so all simplicial and bisimplicial identities hold
strictly at the morphism level and strictly commuting squares carry
honest identity fillers, which is what the pullback checkers assume.
A level reads its iso-class table and its hom-sets off one walk of
relabeling orbits: each class is the orbit of its first object r under
the relabelings of its elements, Aut r is the stabilizer, and each
member a keeps a relabeling sigma_a: r -> a, so that the isomorphisms
a -> b are sigma_b . Aut r . sigma_a^{-1}.  No check on a level computes
a canonical form, the least relation encoding over every arrangement
within the blocks of an invariant (the color, refined twice by the
invariants above and below).  Canonical forms only name classes: the
`iso_key` of a level, which classifies its full subgroupoids, the keys
of `poset_key` and the CLI, and the poset catalogue.

The Phi count of I and C lists no simplex: a dynamic program over the
up-sets of f counts the chains of up-sets that the simplices over f are.

Everything here that depends only on hashable values -- canonical forms,
automorphism groups, the relabelings of m elements, poset catalogues,
level object lists and their groupoids, the rank maps of kept elements
and the spaces themselves -- is memoised with `functools.cache`, once
per process.  Every operator is a tabulated functor: it computes each
object's and each morphism's image once, into tables it holds, so the
pullback checks, which visit every object and morphism many times, redo
no layer surgery.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations, product
from typing import Optional

from .bicomodule import AugmentedBisimplicialGroupoid, rota_evaluate
from .catposet import FinPoset
from .groupoid import DomainError, FiniteGroupoid, GroupoidFunctor, IsoClassTable, Mor
from .incidence import mobius
from .simplicial import TruncatedSimplicialGroupoid

# A layered structure: (ns, np, colors, rels) with colors[e] the layer
# number of element e, in 1..ns+np (set layers first), and rels a sorted
# tuple of strict pairs (a, b) meaning a < b, transitively closed.


class RouteDisagreementError(Exception):
    """The direct and Rota routes disagree: an implementation bug."""


def _blocks(colors, rels):
    """The elements grouped by an invariant that every isomorphism keeps
    (the color, refined twice by the invariants above and below), the
    blocks in invariant order."""
    m = len(colors)
    ups = {e: [] for e in range(m)}
    downs = {e: [] for e in range(m)}
    for a, b in rels:
        ups[a].append(b)
        downs[b].append(a)
    inv = {e: (colors[e],) for e in range(m)}
    for _ in range(2):
        inv = {e: (inv[e],
                   tuple(sorted(inv[u] for u in ups[e])),
                   tuple(sorted(inv[d] for d in downs[e])))
               for e in range(m)}
    blocks: dict = {}
    for e in range(m):
        blocks.setdefault(inv[e], []).append(e)
    return [blocks[k] for k in sorted(blocks)]


@functools.cache
def canonical_form(struct):
    """Return (key, perm) with perm mapping concrete index -> canonical
    position; the canonical form minimizes the relation encoding over all
    color/invariant-class-preserving relabelings."""
    ns, np_, colors, rels = struct
    m = len(colors)
    rels = tuple(sorted(rels))
    if not rels:
        order = sorted(range(m), key=lambda e: (colors[e], e))
        perm = [0] * m
        for pos, e in enumerate(order):
            perm[e] = pos
        return (ns, np_, tuple(sorted(colors)), ()), tuple(perm)
    ordered_blocks = _blocks(colors, rels)
    offsets = []
    off = 0
    for blk in ordered_blocks:
        offsets.append(off)
        off += len(blk)
    best_enc = None
    best_perm = None
    for arrangement in product(*(permutations(blk) for blk in ordered_blocks)):
        perm = [0] * m
        for blk_idx, placed in enumerate(arrangement):
            for slot, e in enumerate(placed):
                perm[e] = offsets[blk_idx] + slot
        enc = tuple(sorted((perm[a], perm[b]) for a, b in rels))
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_perm = tuple(perm)
    canon_colors = [None] * m
    for e in range(m):
        canon_colors[best_perm[e]] = colors[e]
    return (ns, np_, tuple(canon_colors), best_enc), best_perm


def canonical_key(struct):
    return canonical_form(struct)[0]


@functools.cache
def aut_perms(key):
    """All automorphism permutations of a canonical layered structure."""
    ns, np_, colors, rels = key
    m = len(colors)
    relset = frozenset(rels)
    ordered_blocks = _blocks(colors, rels)
    perms = []
    for arrangement in product(*(permutations(blk) for blk in ordered_blocks)):
        perm = [0] * m
        for blk, placed in zip(ordered_blocks, arrangement):
            for src, dst in zip(blk, placed):
                perm[src] = dst
        if all(((perm[a], perm[b]) in relset) for a, b in rels):
            perms.append(tuple(perm))
    return tuple(perms)


def aut_order(key) -> int:
    return len(aut_perms(key))


def layered_groupoid(objects, name="") -> FiniteGroupoid:
    """The groupoid of labelled layered structures with the given objects;
    morphisms are color-preserving relation isomorphisms.  It carries its
    iso-class table from construction, and reads its hom-sets off the
    same relabeling orbits, both from `_orbit_classes`: with r the
    representative of a and sigma_a: r -> a the relabeling the orbit walk
    kept, hom(a, b) is sigma_b . alpha . sigma_a^{-1} for each alpha in
    Aut(r), identity first, or () when b lies in another class.  The rule
    reads only the walk's records, not G, so no reference cycle forms.
    `iso_key` is `canonical_key`, the rule of its full subgroupoids."""

    def hom(a, b):
        r = class_of[a]
        if class_of[b] is not r:
            return ()
        back, sigma = moves[a][1], moves[b][0]
        return tuple(Mor(a, b, tuple(map(sigma.__getitem__, map(alpha.__getitem__, back))))
                     for alpha in auts[r])

    def compose(g, f):
        return Mor(f.src, g.tgt, tuple(map(g.label.__getitem__, f.label)))

    def identity(a):
        return Mor(a, a, tuple(range(len(a[2]))))

    G = FiniteGroupoid(objects, hom, compose, identity,
                       grade=lambda k: len(k[2]), iso_key=canonical_key, name=name)
    table, moves, auts = _orbit_classes(G)
    class_of = table._class_of
    G._memo["iso_classes",] = table
    return G


@functools.cache
def _relabelings(m: int) -> tuple:
    """(sigma, sigma^{-1}) for every permutation sigma of range(m), the
    identity first."""
    out = []
    for sigma in permutations(range(m)):
        back = [0] * m
        for e, f in enumerate(sigma):
            back[f] = e
        out.append((sigma, tuple(back)))
    return tuple(out)


def _orbit_classes(G: FiniteGroupoid) -> tuple:
    """(table, moves, auts): the iso-class table of a layered groupoid and
    its isomorphisms, from relabeling orbits.

    The first object r, in object order, that no earlier orbit holds is a
    representative; its class is the images of r under the m! relabelings
    of its m elements that are objects of G, in object order.  For each
    member a, moves[a] is the pair (sigma_a, sigma_a^{-1}) of
    `_relabelings` whose sigma_a, the first that sends r to a, is an
    isomorphism r -> a; auts[r] is the stabilizer of r, the relabelings
    that send r to itself, identity first: Aut r, whose order is m! over
    the orbit's size, the orbit counting images outside G too.  The table
    is the one `IsoClassTable._build` groups by `canonical_key`, with no
    canonical form computed.  Every key of the table and of the records is
    an object of G itself, not an image equal to it, so that reading them
    compares no structure."""
    found = {}   # image -> (representative, relabeling pair)
    members, class_of, moves, auts = {}, {}, {}, {}
    for b in G.objects:
        if b not in found:
            ns, np_, colors, rels = b
            xs, ys = [x for x, _ in rels], [y for _, y in rels]
            relabelings = _relabelings(len(colors))
            fixed, orbit, stabilizer = relabelings[0], {}, []
            for pair in relabelings:
                sigma, back = pair
                at = sigma.__getitem__
                image = (ns, np_, tuple(map(colors.__getitem__, back)),
                         tuple(sorted(zip(map(at, xs), map(at, ys)))))
                if orbit.setdefault(image, pair) is fixed:   # the image is b
                    stabilizer.append(sigma)
            for image, pair in orbit.items():
                found[image] = b, pair
            members[b], auts[b] = [], tuple(stabilizer)
        a, moves[b] = found.pop(b)
        class_of[b] = a
        members[a].append(b)
    table = IsoClassTable(members, {a: tuple(group) for a, group in members.items()},
                          class_of, {a: len(auts[a]) for a in members})
    return table, moves, auts


# -- layer surgery -------------------------------------------------------------


def _layer_face(struct, v):
    """d_v on the layers 1..n of a layered structure: it changes layer
    L = max(v, 1), a set layer when L <= ns.  An outer face (v = 0 or n)
    deletes layer L with an order-preserving reindex; an inner one joins
    layers v and v+1 by recoloring, keeping every relation (the last set
    layer joins the first poset layer with the relations it records)."""
    ns, np_, colors, rels = struct
    L = max(v, 1)
    shape = (ns - (L <= ns), np_ - (L > ns))
    if 0 < v < ns + np_:
        return (*shape, tuple(c - (c > L) for c in colors), rels), None
    keep = tuple(e for e, c in enumerate(colors) if c != L)
    reindex = _rank(keep)
    colors2 = tuple(colors[e] - (colors[e] > L) for e in keep)
    # keep is increasing, so the reindexed pairs of sorted rels stay sorted
    rels2 = tuple((reindex[a], reindex[b]) for a, b in rels
                  if a in reindex and b in reindex)
    return (*shape, colors2, rels2), keep


def _insert_layer(struct, layer, set_layer):
    """s_v's empty layer, numbered `layer`: a set layer if set_layer, else
    a poset layer; the layers from `layer` on move up by one."""
    ns, np_, colors, rels = struct
    colors2 = tuple(c + (c >= layer) for c in colors)
    return (ns + set_layer, np_ + (not set_layer), colors2, rels), None


@functools.cache
def _rank(keep: tuple) -> dict:
    """The new index of each kept element, keep[i] -> i, in keep order;
    one dict per keep tuple, shared by every caller and never mutated."""
    return {old: new for new, old in enumerate(keep)}


def _op_functor(src_gpd, tgt_gpd, surgery, *args, name="") -> GroupoidFunctor:
    """The functor of the layer surgery a -> surgery(a, *args).

    The surgery returns the image structure and keep, the increasing tuple
    of the elements of a that survive, or None when no element is deleted
    (pure recoloring).  The functor is tabulated: each object's image,
    interned in the target level, is computed once with its rank, the
    shared `_rank(keep)`, kept only when elements are deleted; each
    morphism's image is computed once from the images and ranks of its
    ends."""
    interned = tgt_gpd._get(("interned",), dict)

    def rule(a):
        res, keep = surgery(a, *args)
        return interned.setdefault(res, res), None if keep is None else _rank(keep)

    def mor(mr, src, tgt):
        (res_a, rank_a), (res_b, rank_b) = src, tgt
        if rank_a is None:
            return Mor(res_a, res_b, mr.label)
        label = mr.label   # rank_a iterates over the kept elements of mr.src
        return Mor(res_a, res_b, tuple(rank_b[label[e]] for e in rank_a))

    return GroupoidFunctor.tabulated(src_gpd, tgt_gpd, rule, mor, name=name)


# -- enumeration ----------------------------------------------------------------


@functools.cache
def _plain_posets(m: int) -> tuple:
    """Canonical strict orders on {0..m-1}: each order on m-1 points gets a
    new maximal element over each of its order ideals."""
    if m == 0:
        return ((),)
    seen = {}
    for rels in _plain_posets(m - 1):
        down = {e: {a for a, b in rels if b == e} for e in range(m - 1)}
        for bits in product((False, True), repeat=m - 1):
            ideal = {e for e in range(m - 1) if bits[e]}
            if any(not down[e] <= ideal for e in ideal):
                continue
            new_rels = tuple(sorted(tuple(rels) + tuple((a, m - 1) for a in ideal)))
            key, _ = canonical_form((0, 1, (1,) * m, new_rels))
            seen[key[3]] = None
    return tuple(sorted(seen))


@functools.cache
def _labeled_posets(m: int) -> tuple:
    """All strict orders on the labelled carrier {0..m-1}."""
    out = set()
    for rels in _plain_posets(m):
        for perm in permutations(range(m)):
            out.add(tuple(sorted((perm[a], perm[b]) for a, b in rels)))
    return tuple(sorted(out))


@functools.cache
def _up_sets(mp, rels) -> tuple:
    """Up-closed subsets of the strict order rels on {0..mp-1}."""
    ups = {e: {b for a, b in rels if a == e} for e in range(mp)}
    out = []
    for bits in product((False, True), repeat=mp):
        U = {e for e in range(mp) if bits[e]}
        if all(ups[e] <= U for e in U):
            out.append(tuple(sorted(U)))
    return tuple(out)


@functools.cache
def _level_objects(ns: int, np_: int, grade_bound: int):
    """All labelled layered structures with ns set layers, np poset layers
    and at most grade_bound elements.

    Relations go from anywhere into the poset part only: the poset part is
    monotone for its layers, set elements carry an up-set of poset
    elements they sit below (this cross data is what makes the top merge
    invertible in the stability squares), and set layers are discrete.
    """
    out = []
    for m in range(0, grade_bound + 1):
        for colors in product(range(1, ns + np_ + 1), repeat=m):
            p_positions = [e for e in range(m) if colors[e] > ns]
            s_positions = [e for e in range(m) if colors[e] <= ns]
            mp = len(p_positions)
            for rels0 in _labeled_posets(mp):
                if not all(colors[p_positions[a]] <= colors[p_positions[b]]
                           for a, b in rels0):
                    continue
                p_rels = tuple((p_positions[a], p_positions[b]) for a, b in rels0)
                upset_choices = _up_sets(mp, rels0) if s_positions else ()
                for assignment in product(upset_choices, repeat=len(s_positions)):
                    s_rels = tuple((x, p_positions[q])
                                   for x, U in zip(s_positions, assignment)
                                   for q in U)
                    out.append((ns, np_, colors,
                                tuple(sorted(p_rels + s_rels))))
    return tuple(out)


# -- the decomposition spaces I and C, and the bicomodule B ----------------------


def _count_layerings(space, n, f):
    """The Phi count of layered sets and posets, by a dynamic program over
    the up-sets of f.

    The k-simplices over a 1-layered f with every layer nonempty are its
    k-layerings: strict chains f = D_1 > D_2 > ... > D_k > {} of up-sets
    (all subsets for sets), with element e in layer max{j : e in D_j}.
    Layer k of the program maps each up-set U to the number of such
    chains of length k that end at U; layer k+1 extends each by a nonempty
    up-set strictly inside U while k < n, and Phi_k is the sum of layer k.
    No layering is listed.
    """
    _ns, _np, colors, rels = f
    m = len(colors)
    masks = [sum(1 << e for e in U) for U in _up_sets(m, rels) if U]
    counts = [0] * (n + 1)
    ends, k = ({(1 << m) - 1: 1} if m else {}), 1
    while ends:
        counts[k] = sum(ends.values())
        longer: dict = {}
        if k < n:
            for D, chains in ends.items():
                for U in masks:
                    if U != D and U & D == U:
                        longer[U] = longer.get(U, 0) + chains
        ends, k = longer, k + 1
    return counts


def _coaction_fiber(B, side, m):
    """The coaction generator of the sets/posets bicomodule at a 1-layered
    poset m of cell (0,0).

    Right: the simplices of cell (0,1) that the join d_0 sends to m are m
    with an up-set U moved to poset layer 2 (U = {} and U = m included:
    cells carry empty layers); vertex face m minus U, base edge U.  Left:
    the simplices of cell (1,0) that the merge e_1 sends to m are m with a
    set S of its minimal elements moved to the set layer (a set element
    has nothing below it); vertex face m minus S, base edge S as a
    1-layered set.  Both faces are read by `_layer_face` on the simplex.
    """
    _ns, _np, colors, rels = m
    size = len(colors)
    if side == "right":
        for U in _up_sets(size, rels):
            sigma = (0, 2, tuple(2 if e in U else 1 for e in range(size)), rels)
            yield _layer_face(sigma, 2)[0], _layer_face(sigma, 0)[0]
        return
    above = {b for _a, b in rels}
    minimal = [e for e in range(size) if e not in above]
    for bits in product((False, True), repeat=len(minimal)):
        S = {e for e, bit in zip(minimal, bits) if bit}
        sigma = (1, 1, tuple(1 if e in S else 2 for e in range(size)), rels)
        yield _layer_face(sigma, 0)[0], _layer_face(sigma, 2)[0]


def layered_sets(grade_bound: int, max_level: Optional[int] = None) -> TruncatedSimplicialGroupoid:
    """The simplicial groupoid of layered finite sets with at most
    grade_bound elements: level n is the groupoid of n-layered sets,
    morphisms the layer-preserving bijections; faces join or delete
    layers, degeneracies insert empty layers.  Segal and complete."""
    if grade_bound < 0:
        raise DomainError("grade_bound must be >= 0")
    return _layered_space("s", grade_bound, grade_bound + 2 if max_level is None else max_level)


def layered_posets(grade_bound: int, max_level: Optional[int] = None) -> TruncatedSimplicialGroupoid:
    """The simplicial groupoid of layered finite posets with at most
    grade_bound elements: level n is the groupoid of monotone layerings
    P -> {1..n}, morphisms the layer-respecting poset isomorphisms.  A
    decomposition space (not Segal), complete, graded by element count."""
    if grade_bound < 0:
        raise DomainError("grade_bound must be >= 0")
    return _layered_space("p", grade_bound, grade_bound + 2 if max_level is None else max_level)


@functools.cache
def _layered_level(ns: int, np_: int, grade_bound: int) -> FiniteGroupoid:
    """The groupoid of layered structures with ns set and np poset layers:
    level ns of I, level np of C, or cell (ns, np-1) of the sets/posets
    grid, so that cell (0, j) is level j+1 of C itself."""
    name = f"B({ns},{np_ - 1})" if ns and np_ else f"I_{ns}" if ns else f"C_{np_}"
    return layered_groupoid(_level_objects(ns, np_, grade_bound), name=name)


@functools.cache
def _layered_space(kind: str, grade_bound: int, max_level: int) -> TruncatedSimplicialGroupoid:
    """Layered sets I (kind 's') or layered posets C (kind 'p')."""
    letter = "I" if kind == "s" else "C"

    def level(s, n):
        return _layered_level(*((n, 0) if kind == "s" else (0, n)), grade_bound)

    return TruncatedSimplicialGroupoid(
        max_level, level,
        lambda s, n, v: _op_functor(s.level(n), s.level(n - 1), _layer_face, v,
                                    name=f"d{v}@{n}"),
        lambda s, n, v: _op_functor(s.level(n), s.level(n + 1), _insert_layer,
                                    v + 1, kind == "s", name=f"s{v}@{n}"),
        grade_bound=grade_bound, phi_fn=_count_layerings, name=f"{letter}<={grade_bound}")


def sets_posets_bicomodule(grade_bound: int, max_i: int = 3, max_j: int = 3,
                           ) -> AugmentedBisimplicialGroupoid:
    """The bicomodule of layered sets and posets: cell (i,j) holds pairs of
    an i-layered set and a (j+1)-layered poset, realized as one layered
    structure with i set layers and j+1 poset layers.  Its borders are
    `layered_sets(grade_bound, max_i)` and `layered_posets(grade_bound,
    max_j)` themselves.

    Faces and degeneracies are the layer rule of I and C at vertex v of
    the (i+1+j)-simplex, so horizontal operators act on the poset part
    (the first poset layer is the distinguished one: no horizontal face
    deletes it) and vertical operators on the set part, except the top
    face, which joins the last set layer to the first poset layer.  The
    right pointing inserts an empty first poset layer along row 0; the
    left pointing exists at the bottom of column 0 only (prepending an
    empty distinguished layer to a plain layered poset), which is all the
    Rota formula consumes.

    The grid supplies a coaction generator: the 1-simplices over m are m
    with an up-set moved to a second poset layer (right) or with a set of
    minimal elements moved to a set layer (left), so the coactions, and
    with them the Rota route, never build cells (0,1) and (1,0).  Both
    legs only recolor, so each label's count is its homotopy-fiber weight.
    """
    if grade_bound < 0:
        raise DomainError("grade_bound must be >= 0")
    return _sets_posets_bicomodule(grade_bound, max_i, max_j)


@functools.cache
def _sets_posets_bicomodule(grade_bound: int, max_i: int,
                            max_j: int) -> AugmentedBisimplicialGroupoid:
    def cell_fn(B, i, j):
        return _layered_level(i, j + 1, grade_bound)

    def face_fn(B, i, j, v):
        return _op_functor(B.cell(i, j), B.face_target(i, j, v), _layer_face, v,
                           name=f"d{v}@({i},{j})")

    def degen_fn(B, i, j, v):
        return _op_functor(B.cell(i, j), B.degen_target(i, j, v), _insert_layer,
                           v + 1, v <= i, name=f"s{v}@({i},{j})")

    def section_fn(B, side, n):
        if side == "right":
            return _op_functor(B.cell(0, n - 1), B.cell(0, n), _insert_layer, 1, False,
                               name=f"s-1@(0,{n})")
        if n != 0:
            return None  # no canonical section of the merge at higher levels
        return _op_functor(B.cell(-1, 0), B.cell(0, 0), _insert_layer, 1, False,
                           name="t-top@(0,0)")

    return AugmentedBisimplicialGroupoid(
        max_i, max_j, layered_sets(grade_bound, max_i),
        layered_posets(grade_bound, max_j), cell_fn, face_fn, degen_fn,
        section_fn=section_fn, coaction_fn=_coaction_fiber, name=f"B<={grade_bound}")


# -- poset catalog and the headline computation ----------------------------------


def enumerate_posets(n: int):
    """All posets on n elements up to isomorphism, with automorphism group
    orders.  Counts are the acceptance gate 1, 1, 2, 5, 16, 63 for
    n = 0..5; sizes beyond 6 are refused."""
    if n > 6:
        raise DomainError("poset enumeration is limited to n <= 6")
    if n < 0:
        raise DomainError("n must be >= 0")
    out = []
    for rels in _plain_posets(n):
        P = FinPoset(range(n), rels)
        key = (0, 1, (1,) * n, rels)
        out.append((P, aut_order(key)))
    return out


def poset_key(P: FinPoset):
    """The canonical key of a plain poset as a 1-layered object of C."""
    index = {x: e for e, x in enumerate(P.elements)}
    rels = tuple(sorted((index[a], index[b]) for a, b in P.strict_pairs()))
    key, _ = canonical_form((0, 1, (1,) * len(P.elements), rels))
    return key


def mu_posets(P: FinPoset, route: str = "direct") -> Fraction:
    """The Mobius function of the decomposition space of finite posets at P.

    route 'direct' computes the alternating Phi sum on the layered-posets
    space; route 'rota' evaluates both sides of the generalized Rota
    formula on the sets/posets bicomodule and returns the common value,
    raising RouteDisagreementError if the two sides differ."""
    g = max(len(P.elements), 1)
    key = poset_key(P)
    if route == "direct":
        X = layered_posets(g, max_level=max(2, g))
        return mobius(X, key)
    if route == "rota":
        B = sets_posets_bicomodule(g, max_i=max(2, g), max_j=max(2, g))
        lhs, rhs = rota_evaluate(B, key)
        if lhs != rhs:
            raise RouteDisagreementError(
                f"Rota routes disagree at {key!r}: {lhs} vs {rhs}")
        return rhs
    raise DomainError(f"unknown route {route!r}")
