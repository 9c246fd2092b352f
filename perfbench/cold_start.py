"""Set-up probe: a fresh interpreter imports tlammcox and runs its first,
cold fit. Prints {"import_s", "fit_s"} as JSON; dataset simulation is not
timed.

    python3 perfbench/cold_start.py N P SEED
"""

import json
import math
import os
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
import tlammcox  # noqa: E402
import tlammcox.cli  # noqa: E402,F401

t1 = perf_counter()
n, p, seed = (int(a) for a in sys.argv[1:4])
dataset, _ = tlammcox.simulate_dataset(
    tlammcox.SimulationConfig(n=n, p=p, s=min(10, p), seed=seed))
lam = 0.65 * math.sqrt(math.log(p) / n)
t2 = perf_counter()
fit = tlammcox.tlamm(dataset, tlammcox.scad(lam))
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "fit_s": t3 - t2,
                  "finite": bool(all(math.isfinite(b) for b in fit.beta))}))
