"""Host-speed probe: a fixed task that does not use binsa.

    python bench/reference.py

The benchmark runs this in a fresh process between the program's calls and
rescales its end-to-end times by the probe's median wall time (see
HostProbe in run.py). It does the same kinds of work as a binsa call, in
small amounts: interpreter start, importing numpy, a stable sort and binned
sums over an array, and formatting and parsing floats as text.
"""

import numpy as np

rng = np.random.default_rng(12345)
x = rng.standard_normal(200_000)
order = np.argsort(x, kind="stable")
sums = np.bincount(order % 50, weights=x, minlength=50)
text = ",".join(map(repr, x[:40_000].tolist()))
parsed = sum(map(float, text.split(",")))
print(len(text), float(sums.sum()), parsed)
