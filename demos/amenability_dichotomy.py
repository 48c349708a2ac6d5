"""Two growth regimes, two spectral fates: on lattice boxes the walk's
spectral radius climbs to 1 as the box grows, on regular trees it stays
pinned near the infinite-tree value 2 sqrt(3) / 4."""

import numpy as np

from coarsecalc import profiles, randomwalk, zoo

TREE_LIMIT = np.sqrt(3.0) / 2.0  # infinite 4-regular tree

print("4-regular trees (rho approaches the limit from below)")
for depth in (4, 6, 8, 10):
    tree = zoo.regular_tree(4, depth)
    rho, _ = randomwalk.spectral_radius(
        randomwalk.pure_srw(tree, ambient_degree=4))
    print(f"  depth {depth:>2} ({tree.n:>5} points): rho = {rho:.6f}   "
          f"gap to limit {TREE_LIMIT - rho:+.4f}")

print("\nsquare lattice boxes (rho creeps up to 1)")
for L in (4, 8, 16, 32):
    box = zoo.grid(2, L)
    rho, _ = randomwalk.spectral_radius(
        randomwalk.pure_srw(box, ambient_degree=4))
    print(f"  {L:>2} x {L:<2} ({box.n:>5} points): rho = {rho:.6f}   "
          f"gap to 1 {1.0 - rho:.4f}")

# the same split shows up in the cheapest isoperimetric number, here
# scanned over balls (near-optimal cuts in a box, hopeless in a tree)
print("\nCheeger constants at h=1 over ball cuts")
tree = zoo.regular_tree(4, 6)
box = zoo.grid(2, 12)
for name, space in (("tree depth 6", tree), (box.name, box)):
    balls = [space.ball(0, r) for r in range(1, 12)]
    value, witness = profiles.cheeger(space, 1.0, balls)
    print(f"  {name:<14} h-Cheeger <= {value:.4f} "
          f"(best cut has measure {witness.measure:g})")
print("\nevery tree cut exposes boundary comparable to its bulk; box cuts")
print("can hide almost all of their volume behind a thin rim")
