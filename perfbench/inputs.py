"""Seeded inputs of every workload.

The benchmark process builds all inputs from the ``--seed`` argument and
hands the program only the generated requests; the same seed always
gives the same inputs.  Trees are the mixed families of the forest
benchmark (uniform binary and plane trees, preferential attachment,
nested-dissection-shaped, shallow caterpillars) and every tree kept has
an I/O regime, so each memory bound M1/Mmid/M2 is a real out-of-core
instance and no request is refused.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("binary", "plane", "attachment", "nd", "caterpillar")
#: the paper's four strategies, served round-robin on ``service_cold``.
PAPER_STRATEGIES = ("PostOrderMinIO", "OptMinMem", "RecExpand", "FullRecExpand")
#: the paper strategies with whole-forest kernels (``batch``, warm corpus).
KERNEL_STRATEGIES = ("OptMinMem", "PostOrderMinIO")
BOUNDS = ("M1", "Mmid", "M2")

#: ``batch`` unit sizes: the report's shard size, then a large unit.
BATCH_UNIT_SIZES = (8, 64)
BATCH_UNITS = 24
BATCH_NODES = (64, 512)
COLD_NODES = (64, 1024)
WARM_NODES = (64, 256)
_GOLDEN = 0.6180339887498949


def _family_tree(family: str, n: int, seed: int) -> tuple[list[int], list[int]]:
    from repro.datasets.synth import huge_instance, synth_instance

    if family in ("binary", "plane"):
        tree = synth_instance(n, seed=seed, shape=family)
        return list(tree.parents), list(tree.weights)
    # shallow caterpillars: the deep-spine variant is a recursion
    # regression shape, not a throughput workload
    kwargs = {"depth": n // 8} if family == "caterpillar" else {}
    at = huge_instance(family, n, seed=seed, **kwargs)
    return at._parents.tolist(), at._weights.tolist()


def io_trees(
    rng: np.random.Generator, count: int, nodes: tuple[int, int]
) -> list[tuple[list[int], list[int], dict[str, int]]]:
    """``count`` trees with an I/O regime, with their M1/Mmid/M2 grid."""
    from repro.analysis.bounds import MemoryBounds
    from repro.core.forest import ArrayForest
    from repro.core.forest_kernels import forest_memory_bounds

    out: list[tuple[list[int], list[int], dict[str, int]]] = []
    drawn = 0
    # sizes follow a golden-ratio sequence from a seeded start: uniform
    # over the range like random draws, but with far less run-to-run
    # spread in the size mix (and so in the work per run)
    start, span = rng.random(), nodes[1] - nodes[0] + 1
    while len(out) < count:
        pairs = []
        for _ in range(max(32, 2 * (count - len(out)))):
            n = nodes[0] + int((start + drawn * _GOLDEN) % 1.0 * span)
            family = FAMILIES[drawn % len(FAMILIES)]
            drawn += 1
            pairs.append(_family_tree(family, n, int(rng.integers(2**31))))
        bounds = forest_memory_bounds(ArrayForest.from_pairs(pairs))
        for (parents, weights), (lb, peak) in zip(pairs, bounds):
            grid = MemoryBounds(lb=lb, peak_incore=peak)
            if grid.has_io_regime and len(out) < count:
                out.append((parents, weights, grid.grid()))
    return out


def batch_corpus(seed: int) -> list[dict]:
    """``BATCH_UNITS`` units alternating 8 and 64 trees, bounds cycling.

    Units are plain JSON (the program process rebuilds the
    ``BatchRequest`` objects).
    """
    rng = np.random.default_rng([seed, 1])
    sizes = [BATCH_UNIT_SIZES[i % 2] for i in range(BATCH_UNITS)]
    trees = io_trees(rng, sum(sizes), BATCH_NODES)
    # deal the trees, smallest first, to the unit furthest behind its
    # share: every unit then spans the whole size range, so units of one
    # size cost about the same and no single unit sets the tail
    members: list[list] = [[] for _ in sizes]
    for parents, weights, _ in sorted(trees, key=lambda t: len(t[0])):
        u = min(
            (u for u, size in enumerate(sizes) if len(members[u]) < size),
            key=lambda u: ((len(members[u]) + 0.5) / sizes[u], u),
        )
        members[u].append([parents, weights])
    return [
        {
            "trees": unit,
            "bound": BOUNDS[i % len(BOUNDS)],
            "algorithms": list(KERNEL_STRATEGIES),
        }
        for i, unit in enumerate(members)
    ]


def solve_payload(tree, algorithm: str, bound: str) -> dict:
    parents, weights, grid = tree
    return {
        "kind": "solve",
        "tree": {"parents": parents, "weights": weights},
        "memory": grid[bound],
        "algorithm": algorithm,
    }


def cold_requests(seed: int, count: int) -> list[dict]:
    """Distinct ``solve`` requests, one tree each: the 4 paper strategies
    round-robin, the bound cycling every 4 requests.

    A tree per request (not per strategy) keeps the few heaviest
    requests, which set the tail latency, from varying with the seed.
    """
    rng = np.random.default_rng([seed, 2])
    n = len(PAPER_STRATEGIES)
    return [
        solve_payload(tree, PAPER_STRATEGIES[i % n], BOUNDS[(i // n) % len(BOUNDS)])
        for i, tree in enumerate(io_trees(rng, count, COLD_NODES))
    ]


def warm_corpus(seed: int, count: int) -> list[dict]:
    """Cheap kernel-strategy ``solve`` requests for the persistent cache.

    Each tree is asked under both kernel strategies (one bound per tree,
    cycling): distinct requests at half the generation cost.
    """
    rng = np.random.default_rng([seed, 3])
    n = len(KERNEL_STRATEGIES)
    trees = io_trees(rng, -(-count // n), WARM_NODES)
    return [
        solve_payload(
            trees[i // n], KERNEL_STRATEGIES[i % n], BOUNDS[(i // n) % len(BOUNDS)]
        )
        for i in range(count)
    ]


def warm_touches(
    seed: int, corpus_size: int, touches: int, epoch: int
) -> dict[str, list[int]]:
    """One epoch of the warm timed phase, split by encoding.

    Every corpus index appears ``touches`` times, half of them on each
    encoding, in one seeded shuffled order.
    """
    rng = np.random.default_rng([seed, 4, epoch])
    index = np.repeat(np.arange(corpus_size), touches)
    encoding = np.tile(np.arange(touches) % 2, corpus_size)
    # a per-index offset, so an index's first touch is on either encoding
    encoding = (encoding + np.repeat(rng.integers(2, size=corpus_size), touches)) % 2
    order = rng.permutation(len(index))
    index, encoding = index[order], encoding[order]
    return {
        "json": index[encoding == 0].tolist(),
        "binary": index[encoding == 1].tolist(),
    }
