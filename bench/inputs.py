"""Seeded inputs of the `nerves` workload.

The seed draws layered posets and acyclic quivers; the program only ever
sees the generated categories.  Standard library only.

Each run compares timings across seeds, so every seed must ask for about
the same amount of work.  An input is kept only when its predicted cost
lies in a narrow band around a fixed target.  The prediction uses counts
of the category alone: its morphisms R and, through powers of the
hom-count matrix, its identity-free n-chains s_n (the nondegenerate
simplices of the nerve).  The weights were fitted to timings of the seed
commit on a 2-core machine; they only steer the sampler, so a program
that gets faster or slower changes every seed alike.
"""

from __future__ import annotations

import random

# Fitted on the seed commit: seconds ~ K[kind] * R^1.16 * (sum_n n s_n)^0.62
# for one input's pass (checks, inversion and classical mu), chains of 6.
_COST_K = {"poset": 5.6e-5, "quiver": 7.0e-5}


def _poset(rng, size, height):
    """A poset on {0..size-1} in `height` nonempty levels; each element
    above the bottom covers one element of the level below, and a few more
    with small probability, so the longest chains have height-1 steps."""
    level = sorted(list(range(height)) + [rng.randrange(height)
                                          for _ in range(size - height)])
    extra = rng.uniform(0.15, 0.45)
    pairs = []
    for b in range(size):
        below = [a for a in range(size) if level[a] == level[b] - 1]
        if below:
            first = rng.choice(below)
            pairs.append((first, b))
            pairs += [(a, b) for a in below if a != first and rng.random() < extra]
    return ("poset", size, tuple(pairs))


def _quiver(rng, size):
    """An acyclic quiver on {0..size-1}: a spine 0 -> 1 -> ... plus random
    forward edges, parallel edges allowed, so the longest paths have
    size-1 edges."""
    edges = [(f"e{k}", k, k + 1) for k in range(size - 1)]
    for k in range(rng.randint(1, size)):
        a = rng.randrange(size - 1)
        edges.append((f"x{k}", a, rng.randrange(a + 1, size)))
    return ("quiver", size, tuple(edges))


def hom_counts(spec) -> list:
    """|Hom(a, b)| as a matrix, from the generating data alone."""
    kind, n, data = spec
    if kind == "poset":
        reach = [[a == b for b in range(n)] for a in range(n)]
        for a, b in data:
            reach[a][b] = True
        for k in range(n):
            for a in range(n):
                if reach[a][k]:
                    for b in range(n):
                        if reach[k][b]:
                            reach[a][b] = True
        return [[int(x) for x in row] for row in reach]
    counts = [[int(a == b) for b in range(n)] for a in range(n)]
    # vertices are numbered along the edges, so a backwards sweep over
    # sources sees every target's row complete
    for a in range(n - 1, -1, -1):
        for _label, src, tgt in data:
            if src == a:
                for b in range(n):
                    counts[a][b] += counts[tgt][b]
    return counts


def _chains(matrix, top) -> list:
    """Number of composable n-chains for n = 0..top (objects at n = 0)."""
    n = len(matrix)
    out, v = [n], [1] * n
    for _ in range(top):
        v = [sum(v[i] * matrix[i][j] for i in range(n)) for j in range(n)]
        out.append(sum(v))
    return out


def shape(spec) -> dict:
    """Morphisms R and identity-free chain counts s_n of an input."""
    hom = hom_counts(spec)
    strict = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(hom)]
    return {"R": sum(map(sum, hom)), "s": _chains(strict, len(hom))}


def predicted_cost(kind, sh) -> float:
    weighted_chains = sum(n * x for n, x in enumerate(sh["s"]))
    return _COST_K[kind] * sh["R"] ** 1.16 * weighted_chains ** 0.62


def nerve_inputs(seed: int, count: int = 20, quiver_every: int = 4,
                 target_s: float = 0.15, band: float = 0.1,
                 size=(10, 16), height: int = 7) -> list:
    """`count` inputs, every `quiver_every`-th a quiver, each with longest
    chains of height - 1 morphisms and a predicted cost within `band` of
    `target_s`."""
    rng = random.Random(seed)
    out = []
    for _attempt in range(100_000):
        if len(out) == count:
            return out
        if (len(out) + 1) % quiver_every == 0:
            spec = _quiver(rng, height)
        else:
            spec = _poset(rng, rng.randint(*size), height)
        if abs(predicted_cost(spec[0], shape(spec)) / target_s - 1) <= band:
            out.append(spec)
    raise ValueError("no inputs of the requested shape and cost")
