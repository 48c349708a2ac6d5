"""Return-probability decay against the volume-growth prediction: tabulate
p^n(x,x) on a lattice box, transform the growth rate, compare slopes."""

import numpy as np

from coarsecalc import profiles, randomwalk, zoo
from coarsecalc.profiles import RateFunction

space = zoo.grid(2, 24)
vp = randomwalk.lazy_srw(space, 1.0)
center = space.n // 2

steps = np.arange(1, 257)
curve = randomwalk.on_diagonal(vp, center, steps)
print(f"return probabilities at the center of {space.name}")
for n in (1, 4, 16, 64, 256):
    print(f"  n={n:<4d} p^n(x,x) = {curve.at(n):.6f}")

# quadratic volume growth, so the decay rate should follow 1/t
phi = RateFunction.power(0.5)  # phi(v) = sqrt(v), i.e. V(x,r) ~ r^2
t = np.geomspace(0.5, 512, 40)
gt = randomwalk.gamma_transform(phi, t, v_min=1.0)
print("\nrate transform of phi(v) = v^(1/2) (closed form 1/(t + 1))")
for ti, g in zip(gt.t[::13], gt.gamma[::13]):   # grid points, no interpolation
    print(f"  t={ti:<9.6g} gamma = {g:.15f}   "
          f"closed form {1.0 / (ti + 1.0):.15f}")

rep = randomwalk.decay_vs_profile(space, vp, phi, np.arange(1, 257),
                                  centers=[center, 0])
print("\nslope comparison over the top decade of steps")
print(f"  status       {rep.status}")
print(f"  decay slope  {rep.slope_decay:+.3f}")
print(f"  gamma slope  {rep.slope_gamma:+.3f}  (a 2d box should give ~ -1)")

# the same growth rate feeds a Nash-type inequality on sample fields
rng = np.random.default_rng(11)
fields = [rng.standard_normal(space.n) for _ in range(12)]
nash = profiles.nash_check(space, vp, phi, fields)
print("\nNash-type check from the growth rate")
print(f"  passes {nash.passes} with fitted constant C = {nash.C:.3f}")

# the decay route needs peaked fields (a spread-out field never has
# ||f||_2^2 above the decay floor) and a curve dominating every point
spikes = []
for x in (0, center):
    e = np.zeros(space.n)
    e[x] = 1.0
    spikes.append(e)
spikes.append(np.exp(-space.dist_row(center) ** 2))
steps64 = np.arange(1, 65)
per_point = np.empty((space.n, steps64.size))
for x in range(space.n):
    per_point[x] = randomwalk.on_diagonal(vp, x, steps64).values
x_star = int(per_point[:, -1].argmax())
dominating = randomwalk.DecayCurve(steps64.astype(float),
                                   per_point.max(axis=0), x_star, vp.kind)
report = randomwalk.nash_from_decay(space, vp, dominating, spikes)
kept = [e for e in report.entries if not e.skipped]
print("\nNash bound induced by the measured decay")
print(f"  passes {report.passes} on {len(kept)} of "
      f"{len(report.entries)} peaked fields")
print(f"  worst margin {min(e.margin for e in kept):.4f}, "
      f"doubling regularity {report.log_derivative_ratio:.3f}")
