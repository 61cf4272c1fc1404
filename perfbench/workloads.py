"""Seeded inputs, reference answers and the request round of each workload.

Instances are generated here, not with ``treesearch.gen``, so that the
inputs stay the same when the library's generators change. Reference
answers come from the library's exact oracle (``opt_cost_min_height``) at
small n, from the closed-form sorted-weight cost for stars, and from an
exact-cover search of this module's own for X3C families.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WHY = {
    "small": ("solve --alg auto (the DP at budget n) and --alg fptas --eps 1/2 at n in {9,10}, --alg exact "
              "at n in {21,22}, verify-lemma2 at q=4, m=10: bounded_dp, exact, reduction work (items 1, 5)"),
    "scale": ("solve --alg auto at n=1200 (greedy) and on stars and double stars at n=800 and 1200 "
              "(diam3): greedy, io and model work, recursion defects fail (item 4)"),
}
WORKLOADS = tuple(WHY)

FPTAS_EPS = Fraction(1, 2)
EXACT_LIMIT = 22


@dataclass
class Request:
    """One closed-loop request: ``solve`` followed by ``eval``, or one
    ``verify-lemma2``. ``ref`` holds the reference answer it is checked
    against; ``label`` names its class for the traced replay."""

    label: str
    kind: str  # "solve" or "verify"
    path: str  # instance file (solve) or X3C file (verify)
    args: list[str] = field(default_factory=list)
    ref: dict = field(default_factory=dict)


# -- trees -----------------------------------------------------------------


def _weights(rng: random.Random, n: int, hi: int) -> list[int]:
    return [rng.randint(1, hi) for _ in range(n)]


def random_parents(rng: random.Random, n: int) -> list[int]:
    """Uniform random recursive tree with shuffled labels."""
    labels = list(range(n))
    rng.shuffle(labels)
    parent = [-1] * n
    for pos in range(1, n):
        parent[labels[pos]] = labels[rng.randrange(pos)]
    return parent


def path_parents(n: int) -> list[int]:
    return [-1] + list(range(n - 1))


def binary_parents(n: int) -> list[int]:
    return [-1] + [(v - 1) // 2 for v in range(1, n)]


def caterpillar_parents(rng: random.Random, n: int) -> list[int]:
    """A spine of n/2 nodes with every other node a leg on a random spine node."""
    spine = n // 2
    return path_parents(spine) + [rng.randrange(spine) for _ in range(n - spine)]


def star_parents(n: int) -> list[int]:
    return [-1] + [0] * (n - 1)


def double_star_parents(n: int) -> list[int]:
    """Centers 0 and 1, the other nodes split evenly between them as leaves."""
    k = (n - 2) // 2
    return [-1, 0] + [0] * k + [1] * (n - 2 - k)


def diameter(parent: list[int]) -> int:
    n = len(parent)
    adj = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)

    def farthest(s: int) -> tuple[int, int]:
        dist = [-1] * n
        dist[s] = 0
        order = [s]
        for u in order:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
        far = max(range(n), key=dist.__getitem__)
        return far, dist[far]

    a, _ = farthest(0)
    return farthest(a)[1]


def format_instance(parent: list[int], weight: list[int]) -> str:
    root = parent.index(-1)
    lines = [f"{len(parent)} {root}"]
    lines += [f"{v} {p} {w}" for v, (p, w) in enumerate(zip(parent, weight))]
    return "\n".join(lines) + "\n"


def star_cost(weight: list[int], center: int) -> int:
    """Optimal cost of a star: isolate leaves in decreasing weight, the
    center is identified last."""
    leaves = sorted((w for v, w in enumerate(weight) if v != center), reverse=True)
    return sum((i + 1) * w for i, w in enumerate(leaves)) + len(leaves) * weight[center]


# -- X3C families ----------------------------------------------------------


def _x3c_family(rng: random.Random, q: int, m: int, planted: bool) -> list[tuple[int, int, int]]:
    """m distinct triples over 3q elements, every element in at most 3 of
    them; with ``planted`` the first q triples partition the universe."""
    n = 3 * q
    while True:
        count = [0] * n
        fam: list[tuple[int, int, int]] = []
        if planted:
            elems = list(range(n))
            rng.shuffle(elems)
            for i in range(q):
                trip = tuple(sorted(elems[3 * i:3 * i + 3]))
                fam.append(trip)
                for e in trip:
                    count[e] += 1
        tries = 0
        while len(fam) < m and tries < 1000:
            tries += 1
            trip = tuple(sorted(rng.sample(range(n), 3)))
            if trip in fam or any(count[e] >= 3 for e in trip):
                continue
            fam.append(trip)
            for e in trip:
                count[e] += 1
        if len(fam) == m and (planted or not has_exact_cover(n, fam)):
            rng.shuffle(fam)
            return fam


def has_exact_cover(n: int, fam: list[tuple[int, int, int]]) -> bool:
    """Brute force over subsets of n/3 sets."""
    full = (1 << n) - 1
    masks = [sum(1 << e for e in t) for t in fam]
    for combo in itertools.combinations(masks, n // 3):
        acc = 0
        for mk in combo:
            if acc & mk:
                break
            acc |= mk
        else:
            if acc == full:
                return True
    return False


def format_x3c(n: int, fam: list[tuple[int, int, int]]) -> str:
    return "\n".join([f"{n} {len(fam)}"] + [" ".join(map(str, t)) for t in fam]) + "\n"


# -- workloads --------------------------------------------------------------


def _oracle(parent: list[int], weight: list[int]) -> tuple[int, int]:
    from treesearch.exact import opt_cost_min_height
    from treesearch.model import InputTree

    return opt_cost_min_height(InputTree(parent, weight), limit=EXACT_LIMIT)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _random_diam4(rng: random.Random, n: int) -> list[int]:
    while True:
        parent = random_parents(rng, n)
        if diameter(parent) >= 4:
            return parent


def relabel(rng: random.Random, parent: list[int]) -> tuple[list[int], list[int]]:
    """The same shape under a random permutation of the node ids; returns
    the new parent list and the permutation (old id -> new id)."""
    perm = list(range(len(parent)))
    rng.shuffle(perm)
    out = [-1] * len(parent)
    for v, p in enumerate(parent):
        out[perm[v]] = -1 if p < 0 else perm[p]
    return out, perm


def _permuted(weight: list[int], perm: list[int]) -> list[int]:
    """The weights of a tree relabelled by ``perm`` (old id -> new id)."""
    out = [0] * len(weight)
    for v, w in enumerate(weight):
        out[perm[v]] = w
    return out


def build_small(shapes: random.Random, rng: random.Random, workdir: Path,
                smoke: bool) -> tuple[list[Request], dict]:
    # Tree shapes and weights are fixed per workload and the seed draws the
    # node labels and the X3C families. The DP's time depends on the weights
    # (by up to a fifth between draws on one shape) but not on the labels, so
    # every seed measures the same DP and oracle work. Each DP tree is
    # solved twice (auto, then fptas) and followed by one exact solve and
    # one verify-lemma2, so the kinds of request spread evenly over a run.
    # The two n = 10 trees give the four slowest requests, a quarter of the
    # round, so request_p90_s falls inside that group rather than at the
    # edge of a gap below one tree slower than all others.
    dp_sizes = [6, 5] if smoke else [10, 10, 9, 9]
    exact_sizes = [8, 9] if smoke else [21, 22, 21, 22]
    per = len(dp_sizes) // len(exact_sizes)
    q, m = (2, 4) if smoke else (4, 10)
    combos = list(itertools.product((True, False), ("diam4", "deg16")))
    reqs = []
    for i, n_exact in enumerate(exact_sizes):
        for j, n in enumerate(dp_sizes[per * i:per * (i + 1)]):
            parent, perm = relabel(rng, _random_diam4(shapes, n))
            weight = _permuted(_weights(shapes, n, 10), perm)
            opt, hstar = _oracle(parent, weight)
            path = _write(workdir, f"dp{per * i + j}.txt", format_instance(parent, weight))
            ref = {"opt": opt, "hstar": hstar}
            reqs.append(Request(f"auto-n{n}", "solve", path, ["--alg", "auto"], ref))
            reqs.append(Request(f"fptas-n{n}", "solve", path,
                                ["--alg", "fptas", "--eps", str(FPTAS_EPS)], dict(ref, eps=str(FPTAS_EPS))))

        parent, perm = relabel(rng, random_parents(shapes, n_exact))
        weight = _permuted(_weights(shapes, n_exact, 10), perm)
        opt, hstar = _oracle(parent, weight)
        path = _write(workdir, f"ex{i}.txt", format_instance(parent, weight))
        reqs.append(Request(f"exact-n{n_exact}", "solve", path,
                            ["--alg", "exact", "--limit", str(EXACT_LIMIT)], {"opt": opt, "hstar": hstar}))

        planted, variant = combos[i % len(combos)]
        fam = _x3c_family(rng, q, m, planted)
        path = _write(workdir, f"x3c{i}.txt", format_x3c(3 * q, fam))
        reqs.append(Request(f"verify-{variant}-{'yes' if planted else 'no'}", "verify", path,
                            ["--variant", variant], {"cover": planted}))
    return reqs, {"dp_n": sorted(set(dp_sizes)), "dp_trees": len(dp_sizes),
                  "exact_n": sorted(set(exact_sizes)), "exact_trees": len(exact_sizes),
                  "eps": str(FPTAS_EPS), "x3c_q": q, "x3c_m": m, "families": len(exact_sizes),
                  "realizations": 2 ** m, "requests_per_round": len(reqs)}


def build_scale(shapes: random.Random, rng: random.Random, workdir: Path,
                smoke: bool) -> tuple[list[Request], dict]:
    big, mid = (120, 80) if smoke else (1200, 800)
    trees = [
        ("random", random_parents(shapes, big)),
        ("path", path_parents(big)),
        ("binary", binary_parents(big)),
        ("caterpillar", caterpillar_parents(shapes, big)),
        (f"star-n{mid}", star_parents(mid)),
        (f"double-star-n{mid}", double_star_parents(mid)),
        (f"star-n{big}", star_parents(big)),
        (f"double-star-n{big}", double_star_parents(big)),
    ]
    reqs = []
    for i, (label, shape) in enumerate(trees):
        parent, perm = relabel(rng, shape)
        weight = _weights(rng, len(parent), 100)
        ref = {"opt": star_cost(weight, perm[0])} if label.startswith("star") else {}
        path = _write(workdir, f"scale{i}.txt", format_instance(parent, weight))
        reqs.append(Request(label, "solve", path, ["--alg", "auto"], ref))
    return reqs, {"n": sorted({len(p) for _, p in trees}), "shapes": [s for s, _ in trees],
                  "requests_per_round": len(reqs)}


BUILDERS = {
    "small": build_small,
    "scale": build_scale,
}


def build(workload: str, seed: int, workdir: Path,
          smoke: bool = False) -> tuple[list[Request], dict]:
    """Write the workload's files into ``workdir`` and return its round of
    requests and a description of its sizes. The same seed gives the same
    files and references.

    ``shapes`` draws what is fixed per workload, so that every seed measures
    comparable work: the tree shapes, and on ``small`` the weights too;
    ``rng`` draws what the seed varies: node labels, X3C families, and the
    weights on ``scale``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    shapes = random.Random(f"{workload}:shapes")
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](shapes, rng, workdir, smoke)
