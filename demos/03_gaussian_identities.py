"""The thirteen Gaussian moment identities behind the expansion constants.

Each closed form is checked against exact Gaussian moments: every axis's
moment table is written from E xi^D = (D - 1)!! of a standard normal xi, and
the tables are multiplied as power series truncated at the highest powers
the identities read, so the cost grows linearly in d.  The
covariances are randomized and diagonal, in dimensions 1 to 5, 12 and 40.
"""

import numpy as np

from brwllt import gaussian_identity_check
from brwllt.step_law import Moments

for d in (1, 2, 3, 4, 5, 12, 40):
    rng = np.random.default_rng(d)
    g2 = tuple(rng.uniform(0.3, 2.0, size=d))
    g4 = tuple(rng.uniform(0.3, 3.0, size=d))
    g6 = tuple(rng.uniform(0.3, 4.0, size=d))
    m = Moments(gamma2=g2, gamma4=g4, gamma6=g6)
    z = tuple(int(v) for v in rng.integers(-3, 4, size=d))
    errs = gaussian_identity_check(m, z)
    print(f"d={d}: max relative error over the {len(errs)} identities: {max(errs):.3e}")
