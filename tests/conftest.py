"""Shared builders: random groupoids, posets, quivers, and the classical
Mobius recursion oracle used as an independent check throughout; and a
fixture that turns the cycle collector off for one test."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from moebiuskit.catposet import FinCategory, FinPoset, nerve
from moebiuskit.groupoid import FiniteGroupoid, GroupoidFunctor, Mor


def cluster_groupoid(clusters, name=""):
    """Disjoint sum of connected groupoids: each cluster is (tag, size,
    group order k) realized with objects (tag, 0..size-1), hom-sets torsors
    over the cyclic group Z_k."""
    objects = [(tag, i) for tag, size, _k in clusters for i in range(size)]
    order = {tag: k for tag, _size, k in clusters}

    def hom(a, b):
        if a[0] != b[0]:
            return ()
        return tuple(Mor(a, b, g) for g in range(order[a[0]]))

    def compose(g, f):
        k = order[f.src[0]]
        return Mor(f.src, g.tgt, (f.label + g.label) % k)

    def identity(a):
        return Mor(a, a, 0)

    return FiniteGroupoid(objects, hom, compose, identity, name=name)


def random_cluster_groupoid(rng, max_clusters=3, max_size=3, max_order=4, name=""):
    n = rng.randint(1, max_clusters)
    clusters = [(f"c{i}", rng.randint(1, max_size), rng.randint(1, max_order))
                for i in range(n)]
    return cluster_groupoid(clusters, name=name), clusters


def random_cluster_functor(rng, target=None):
    """A random functor between random cluster groupoids: each source
    cluster maps to a target cluster through a group homomorphism
    Z_k -> Z_l (multiplication by t with t*k = 0 mod l).  A `target`, a
    (groupoid, clusters) pair of `random_cluster_groupoid`, fixes the
    target instead of drawing one."""
    src, src_clusters = random_cluster_groupoid(rng, name="src")
    tgt, tgt_clusters = target or random_cluster_groupoid(rng, name="tgt")
    assignment = {}
    for tag, _size, k in src_clusters:
        t_tag, t_size, l = tgt_clusters[rng.randrange(len(tgt_clusters))]
        choices = [t for t in range(l) if (t * k) % l == 0]
        assignment[tag] = (t_tag, rng.choice(choices), t_size, l)

    def ob(a):
        t_tag, _t, t_size, _l = assignment[a[0]]
        return (t_tag, a[1] % t_size)

    def mor(m):
        t_tag, t, _sz, l = assignment[m.src[0]]
        return Mor(ob(m.src), ob(m.tgt), (m.label * t) % l)

    return GroupoidFunctor(src, tgt, ob, mor, name="rand")


def random_poset(rng, max_size=5):
    n = rng.randint(1, max_size)
    elements = list(range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((i, j))  # i < j keeps the input acyclic
    return FinPoset(elements, pairs)


@st.composite
def posets(draw, max_size=5):
    """A hypothesis strategy: posets on {0..n-1}, 1 <= n <= max_size,
    generated by a random set of pairs a < b."""
    n = draw(st.integers(1, max_size))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FinPoset(range(n), [p for p, k in zip(pairs, keep) if k])


def random_quiver_category(rng, max_nodes=4, max_edges=4):
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    edges = []
    for e in range(rng.randint(0, max_edges)):
        if n < 2:
            break
        a = rng.randrange(n - 1)
        b = rng.randrange(a + 1, n)  # edges go up: acyclic quiver
        edges.append((f"e{e}", a, b))
    return FinCategory.free_on_quiver(nodes, edges)


def criterion_4_categories():
    """The categories of acceptance criterion 4: seed 42, 14 posets and 6
    quivers."""
    rng = random.Random(42)
    categories = [FinCategory.from_poset(random_poset(rng, max_size=5)) for _ in range(14)]
    return categories + [random_quiver_category(rng) for _ in range(6)]


def criterion_4_nerves():
    """The nerves of acceptance criterion 4, truncated at level 6."""
    return [nerve(C, max_level=6) for C in criterion_4_categories()]


def poset_mobius_oracle(P: FinPoset):
    """The classical recursion mu(x,x) = 1, mu(x,y) = -sum_{x<=z<y} mu(x,z),
    independent of the incidence machinery."""
    memo = {}

    def mu(x, y):
        if (x, y) in memo:
            return memo[(x, y)]
        if x == y:
            value = Fraction(1)
        else:
            value = -sum((mu(x, z) for z in P.elements
                          if P.leq(x, z) and z != y and P.leq(z, y)), Fraction(0))
        memo[(x, y)] = value
        return value

    return mu


def seeded(seed=0):
    return random.Random(seed)


@pytest.fixture
def no_cycle_collector():
    """The cycle collector off for one test, so that what the test drops is
    freed only if reference counting frees it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
