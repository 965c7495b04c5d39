"""Independent answers for the benchmark gate.

Standard library only, and nothing here imports moebiuskit: every value
the gate compares against is derived from first principles.

* Posets up to isomorphism are enumerated by brute force over relation
  sets and identified by their least relabelling.
* The Mobius function of the decomposition space of finite posets has a
  closed form: (-1)^n on the discrete n-element poset, 0 on every other
  poset.  The binomial (layered sets) coalgebra gives (-1)^n on an
  n-element set.
* The classical Mobius function of a finite poset comes from the
  recursion mu(x, x) = 1, mu(x, y) = -sum_{x <= z < y} mu(x, z).
* On the free category of an acyclic quiver mu is 1 on identities, -1 on
  edges and 0 on longer paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations


@lru_cache(maxsize=None)
def canonical_poset(n: int, rels: tuple) -> tuple:
    """The least relabelling of a strict order on {0..n-1}, as (n, pairs)."""
    return (n, min(tuple(sorted((p[a], p[b]) for a, b in rels))
                   for p in permutations(range(n))))


def poset_classes(n: int) -> list:
    """Canonical forms of all strict partial orders on n points, up to
    isomorphism, by brute force over the 2^(n(n-1)) relation sets."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = set()
    for mask in range(1 << len(pairs)):
        rels = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        if any((b, a) in rels for a, b in rels):
            continue
        if any((a, d) not in rels for a, b in rels for c, d in rels if b == c):
            continue
        found.add(canonical_poset(n, tuple(sorted(rels))))
    return sorted(found)


def layered_poset_mobius(n: int, rels) -> Fraction:
    """mu of the decomposition space of finite posets at a poset."""
    return Fraction((-1) ** n) if not rels else Fraction(0)


def binomial_mobius(n: int) -> Fraction:
    """mu of the binomial coalgebra of finite sets at an n-element set."""
    return Fraction((-1) ** n)


def order_closure(n: int, pairs) -> set:
    """The reflexive-transitive closure of pairs on {0..n-1} (Warshall)."""
    le = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        le[a][b] = True
    for k in range(n):
        for a in range(n):
            if le[a][k]:
                row_k = le[k]
                row_a = le[a]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    return {(a, b) for a in range(n) for b in range(n) if le[a][b]}


def poset_mobius_table(n: int, pairs) -> dict:
    """{(x, y): mu(x, y)} over every interval x <= y, by the recursion."""
    le = order_closure(n, pairs)
    below = {y: sum(1 for x in range(n) if (x, y) in le) for y in range(n)}
    order = sorted(range(n), key=below.__getitem__)   # a linear extension
    mu = {}
    for x in range(n):
        for y in order:
            if (x, y) not in le:
                continue
            if x == y:
                mu[(x, y)] = Fraction(1)
            else:
                mu[(x, y)] = -sum((mu[(x, z)] for z in range(n)
                                   if (x, z) in le and (z, y) in le and z != y),
                                  Fraction(0))
    return mu


def quiver_paths(n: int, edges) -> list:
    """Every path (start, labels) of an acyclic quiver with edges
    (label, src, tgt), including the empty path at each vertex."""
    out_edges = {a: [] for a in range(n)}
    for label, a, b in edges:
        out_edges[a].append((label, b))
    paths = []
    for start in range(n):
        stack = [((), start)]
        while stack:
            seq, end = stack.pop()
            paths.append((start, seq))
            for label, nxt in out_edges[end]:
                stack.append((seq + (label,), nxt))
    return paths


def free_category_mobius(seq) -> Fraction:
    """mu on the free category of a quiver at a path of the given labels."""
    return Fraction({0: 1, 1: -1}.get(len(seq), 0))
