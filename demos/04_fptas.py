"""The FPTAS: scale weights, solve the scaled instance nearly exactly, keep
the tree.

K = eps * W / n^2 with W the heaviest node; each weight becomes
ceil(w / K), computed in exact rational arithmetic. The scaled total weight
is at most n * (n^2/eps + 1), so the pseudo-polynomial DP runs in time
polynomial in n and 1/eps. ``fptas`` scales with eps/2 and stops the DP at
the first height budget that certifies its tree within (1+eps)/(1+eps/2)
of optimal for the scaled weights, so the returned tree is (1+eps)-optimal
under the original weights.
"""

import random
from fractions import Fraction

from treesearch import InputTree, fptas, opt_cost, scale_weights
from treesearch.gen import random_tree

tree = InputTree([-1, 0, 0, 0], [100, 1, 1, 1])
for eps in (Fraction(1, 2), Fraction(1, 10)):
    scaled = scale_weights(tree, eps)
    print(f"eps={eps}: weights {tree.weight} -> {scaled.weight}")

print()
rng = random.Random(1)
rows = []
for _ in range(8):
    t = random_tree(rng.randint(4, 10), rng.randrange(10**6), (1, 500))
    best, _ = opt_cost(t)
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        _, c = fptas(t, eps)
        rows.append((t.n, str(eps), c, best, f"{c / best:.4f}"))

print(f"{'n':>3} {'eps':>5} {'fptas':>8} {'opt':>8} {'ratio':>8}")
for n, eps, c, best, ratio in rows:
    print(f"{n:>3} {eps:>5} {c:>8} {best:>8} {ratio:>8}")
print("\nevery ratio is at most 1 + eps; equality with the optimum is common")
print("because rounding rarely changes which splits are balanced.")
