"""Exact n-step distributions two independent ways.

Builds the law of a lazy nearest-neighbour walk, computes P(S_n = z) by
dense convolution and by characteristic-function inversion on a uniform
torus grid, and shows that the two oracles agree to machine precision.
"""

import numpy as np

from brwllt import cf_invert_box, convolve_step, delta_dist, dist_at, lazy_simple_law

law = lazy_simple_law(d=1, sigma=1.0 / 3.0)
print(f"step law: d={law.d}, stay probability {law.zeta0:.4f}, weights {law.weights}")

dist = delta_dist(law)
for n in range(1, 21):
    dist = convolve_step(dist, law)
box = cf_invert_box(law, 20)

print(f"\nP(S_20 = z) for small z, convolution vs inversion:")
for z in [(-3,), (0,), (1,), (5,)]:
    a = dist_at(dist, z)
    b = dist_at(box, z)
    print(f"  z={z[0]:+d}: {a:.12e}  {b:.12e}  gap {abs(a - b):.2e}")

print(f"\northant max gap at n=20 (the whole law, by symmetry): {np.abs(dist.mass - box.mass).max():.3e}")
print(f"total mass: {dist.total():.15f}")
