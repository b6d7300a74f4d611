"""Count-based branching random walk and its correction martingales.

Simulates a binary-branching simple walk with exact integer counts,
evaluates the normalized martingale functionals along the way, and
compares occupation counts at a late generation with the random
second-order prediction built from the readout of that generation at
each z, which stands in for the martingale limits there.
"""

from brwllt import (
    ReplicateSeed,
    brw_residual,
    constants_for,
    lazy_simple_law,
    readout,
    simulate,
    theorem_prediction,
    validate_offspring,
)

law = lazy_simple_law(1, 0.0)  # simple walk
off = validate_offspring({2: 1.0})
c = constants_for(law)  # carries the law's moments and walk class

seed = ReplicateSeed(base_seed=12345, replicate_index=0)
(snaps,) = simulate(off, law, [seed], probe_schedule=[8, 16, 32, 48])

print("martingale readouts (should fluctuate around their limits):")
for st in snaps:
    ro = readout(st, off.mean, c.moments, (0,))
    print(f"  n={st.n:2d}: particles={st.total}, W_n={ro.W:.6f}, "
          f"N1={ro.N1[0]:+.4f}, N4={ro.N4:+.4f}")

n = 48
print(f"\noccupation counts at generation {n} vs prediction:")
for z in [(-4,), (-2,), (0,), (2,), (4,)]:
    ro = readout(snaps[-1], off.mean, c.moments, z)
    observed = off.mean ** (-n) * snaps[-1].counts.get(z, 0)
    pred = theorem_prediction(ro, c, n)
    res = brw_residual(snaps[-1], ro, c, off.mean)
    print(f"  z={z[0]:+d}: normalized count {observed:.6e}, "
          f"prediction {pred:.6e}, scaled residual {res:+.3f}")
