"""The thirteen Gaussian moment identities behind the expansion constants.

Each closed form is checked against a Gauss-Hermite product rule, which
integrates the corresponding polynomial-times-Gaussian exactly up to
rounding, for randomized diagonal covariances in dimensions 1 to 5.
"""

import numpy as np

from brwllt import gaussian_identity_check
from brwllt.step_law import Moments

for d in range(1, 6):
    rng = np.random.default_rng(d)
    g2 = tuple(rng.uniform(0.3, 2.0, size=d))
    g4 = tuple(rng.uniform(0.3, 3.0, size=d))
    g6 = tuple(rng.uniform(0.3, 4.0, size=d))
    m = Moments(gamma2=g2, gamma4=g4, gamma6=g6)
    z = tuple(int(v) for v in rng.integers(-3, 4, size=d))
    errs = [gaussian_identity_check(m, idx, z=z if idx <= 4 else None) for idx in range(1, 14)]
    print(f"d={d}: max relative error over the 13 identities: {max(errs):.3e}")
