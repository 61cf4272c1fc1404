"""The bounded-height dynamic program over extended search trees.

ESTs enrich search trees with BLOCKED/UNASSIGNED placeholder nodes so that
subproblems compose along a "partial left path" (PLP): the left spine of the
EST must match the PLP cell for cell, blocked cells staying blocked. The DP
minimizes EST cost for (subforest, PLP) pairs under a height budget B; an
optimal EST for the whole tree converts into an optimal search tree by
deleting the root's query and all placeholders.
"""

from treesearch import (
    BLOCKED,
    UNASSIGNED,
    cost,
    deep_cost_bound,
    est_cost,
    est_to_search_tree,
    height_bound,
    opt_cost,
    optimal_bounded,
    parse_instance,
    search_tree_to_est,
    solve_pb,
)

U, B = UNASSIGNED, BLOCKED
path = parse_instance("3 0\n0 -1 1\n1 0 1\n2 1 1\n")

# Base case: a single node u costs i * w(u), i the first unassigned cell.
single = parse_instance("1 0\n0 -1 5\n")
for plp in [(U,), (B, U), (B, B, U), (U, B, U)]:
    sol = solve_pb(single, ("T", 0), plp, len(plp))
    print("PLP", plp, "-> cost", sol.cost)

# Whole-tree call: all-unassigned PLP of length B. The optimal EST costs the
# search-tree optimum plus one level of the root's weight.
sol = solve_pb(path, ("T", 0), (U, U, U, U), 4)
print("\npath EST cost:", sol.cost)
converted = est_to_search_tree(sol.est, path)
print("converted search tree cost:", cost(converted, path),
      "(oracle:", opt_cost(path)[0], ")")

# Round trip: a search tree of height h lifts to an EST one level taller.
est = search_tree_to_est(converted, path)
print("lifted back: est cost", est_cost(est, path), "=", cost(converted, path), "+ w(root)")

# The proven height bound is loose but safe; n itself always suffices, so
# optimal_bounded caps its budget at min(height_bound, n). Below that cap it
# tries smaller budgets first and keeps a result whose cost is at most
# deep_cost_bound(T, B), which every search tree of height >= B costs.
print("\nheight_bound(path) =", height_bound(path), "-> budget cap:", min(height_bound(path), path.n))
print("optimal_bounded:", optimal_bounded(path)[0])
print("deep_cost_bound(path, B) for B = 1..3:", [deep_cost_bound(path, b) for b in (1, 2, 3)])

# Tight budgets trade cost for height. The star's center is only identified
# once every edge has been queried, so its best search tree has height 3 and
# no EST fits in height 3 at all.
from treesearch import InfeasibleError

star = parse_instance("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n")
for budget in (3, 4, 5):
    try:
        c, _ = optimal_bounded(star, budget=budget)
        print(f"star with EST budget {budget}: cost {c}")
    except InfeasibleError as e:
        print(f"star with EST budget {budget}: infeasible ({e})")
