"""Polynomial exact solvers below the hardness frontier.

The search problem is NP-hard already at diameter 4, but diameter <= 3 is
easy: stars sort their edges by weight, and on diameter-3 "double brooms" some
optimum isolates the heaviest leaves of both centers, heaviest first, and then
queries the center edge, so one O(n log n) scan over where to stop finds it.
"""

import random

from treesearch import InputTree, opt_cost, solve_diam3, solve_star, tree_diameter, validate

star = InputTree([-1, 0, 0, 0], [0, 3, 2, 1])
c, strategy = solve_star(star)
print("star leaves 3,2,1: cost", c, "valid:", validate(strategy, star).ok)

broom = InputTree([-1, 0, 0, 1, 1], [2, 4, 5, 3, 1])
print("double broom r(2)-r'(4), leaves 5 | 3,1:")
print("  diameter:", tree_diameter(broom))
c, strategy = solve_diam3(broom)
print("  diam3 cost:", c, " oracle:", opt_cost(broom)[0])

# Rooting is irrelevant to the problem; the solver re-derives the centers
# from the unrooted structure and encodes queries against the given root.
rerooted = InputTree([-1, 0, 1, 1, 2, 2, 2], [5, 1, 7, 2, 3, 8, 1])
c, strategy = solve_diam3(rerooted)
print("rooted at an outer leaf: diam3", c, "oracle", opt_cost(rerooted)[0])

# Measured work grows linearly: the states are the stopping points
# "how many of the heaviest leaves are isolated before the center edge".
rng = random.Random(0)
print(f"\n{'n':>4} {'states':>10} {'states/n':>11}")
for n in (20, 60, 120, 200):
    i = (n - 2) // 2
    t = InputTree([-1, 0] + [0] * i + [1] * (n - 2 - i),
                  [rng.randint(1, 99) for _ in range(n)])
    stats = {}
    solve_diam3(t, stats)
    print(f"{n:>4} {stats['states']:>10} {stats['states'] / n:>11.3f}")
