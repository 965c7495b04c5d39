"""Reference constructions that no library route calls: the skeleton of a
groupoid, homotopy fibers built as iso-commas, the whole-level
nondegenerate simplices and principal edges, a nerve's Phi walk that
composes every arrow it tries, and the walk that lists the layerings of
a layered set or poset.  The tests check the library's class-wise,
indexed and counting routes against them."""

from moebiuskit.examples import _up_sets
from moebiuskit.groupoid import (
    DomainError,
    FiniteGroupoid,
    GroupoidFunctor,
    _connector,
    _transport,
    discrete_functor,
    discrete_groupoid,
    homotopy_pullback,
)
from moebiuskit.simplicial import (
    TruncatedSimplicialGroupoid,
    WordGroupoid,
    _require_complete,
    word_groupoid,
)


def skeleton(G: FiniteGroupoid) -> FiniteGroupoid:
    """The full subgroupoid on the class representatives, keyed by object
    (they are pairwise non-isomorphic); one per groupoid."""
    return G._get(("skeleton",), FiniteGroupoid, G.iso_classes().reps, G._hom,
                  G._compose, G._identity, G._grade, lambda a: a, f"sk({G.name})")


def skeletalize(G: FiniteGroupoid):
    """Return (skeleton, functor G -> skeleton).

    The skeleton is the full subgroupoid on one representative per iso
    class; the functor sends each object along a chosen connecting iso.
    """
    S, class_of = skeleton(G), G.iso_classes().class_of
    return S, GroupoidFunctor.tabulated(
        G, S, lambda x: (class_of(x), (_connector(G, x, inverse=True), _connector(G, x))),
        lambda m, x, y: _transport(G, m, x[1][0], y[1][1]), name="sk")


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


def principal_edges(X: TruncatedSimplicialGroupoid, n: int, sigma) -> list:
    """All n principal edges of an n-simplex, as objects of level 1."""
    if not X.level(n).has_object(sigma):
        raise DomainError(f"{sigma!r} is not an object of level {n}")
    return [X.principal_edge(n, sigma, i) for i in range(1, n + 1)]


def nondegenerate_simplices(X: TruncatedSimplicialGroupoid, n: int) -> WordGroupoid:
    """X_{a...a}: simplices with every principal edge nondegenerate.

    Requires a complete space so that "nondegenerate" is a well-defined
    complement; for n = 0 this is X_0 itself.
    """
    if n > 0:
        _require_complete(X)
    return word_groupoid(X, "a" * n)


def nerve_fiber_walk(C, n: int, f):
    """The pairs (k, chain) of the chains of k <= n non-identity arrows of
    C composing to the arrow m of f = (m,), in the order of the nerve's
    chain walk, found by composing each arrow out of a chain's end
    with its partial composite and keeping a left factor of m."""
    (m,) = f
    a, b = C.src(m), C.tgt(m)
    factors = {g for g in C.out_arrows(a)
               if any(C.compose(h, g) == m for h in C.hom(C.tgt(g), b))}
    stack = [(C.identities[a], ())]
    while stack:
        g, chain = stack.pop()
        if g == m and chain:
            yield len(chain), chain
        if len(chain) < n:
            for e in reversed(C.out_arrows(C.tgt(g))):
                if not C.is_identity(e):
                    h = C.compose(e, g)
                    if h in factors:
                        stack.append((h, chain + (e,)))


def _layerings(kind):
    """The layering walk of layered sets or posets, fn(space, n, f), the
    oracle of their Phi count `examples._count_layerings`.

    The k-simplices over a 1-layered f with every layer nonempty are its
    k-layerings: strict chains f = D_1 > D_2 > ... > D_k > {} of up-sets
    (all subsets for sets), with element e in layer max{j : e in D_j}.
    Each keeps the relations of f, as joining all layers does.  One walk
    peels the chains of every length k <= n: the node of a chain
    D_1 > ... > D_k yields the layering that ends there, then peels each
    nonempty up-set strictly inside D_k while k < n.
    """

    def fn(space, n, f):
        _ns, _np, colors, rels = f
        m = len(colors)
        masks = [sum(1 << e for e in U) for U in _up_sets(m, rels) if U]
        members = {U: [e for e in range(m) if U >> e & 1] for U in masks}
        layer = [0] * m

        def peel(D, k):
            """The layerings whose k-th up-set is D = D_k."""
            for e in members[D]:
                layer[e] = k
            ns, np_ = (k, 0) if kind == "s" else (0, k)
            yield k, (ns, np_, tuple(layer), rels)
            if k < n:
                for U in masks:
                    if U != D and U & D == U:
                        yield from peel(U, k + 1)
                        for e in members[U]:
                            layer[e] = k

        if m:
            yield from peel((1 << m) - 1, 1)

    return fn
