#!/usr/bin/env python3
"""Is the chao1 standard error honest for this table? Ask the bootstrap."""

import io

from betta.estimators import chao1
from betta.simulate import parametric_bootstrap_se
from betta.tables import read_frequency_table

TABLE = """\
abundance,count
1,120
2,46
3,20
4,13
5,6
6,4
8,2
11,1
17,1
"""

table = read_frequency_table(io.StringIO(TABLE))
est = chao1(table)
print(f"observed richness: {table.observed_richness}")
print(f"chao1 estimate:    {est.estimate:.1f} +- {est.std_error:.1f}")
print(f"singleton/doubleton ratio: {table.singleton_doubleton_ratio:.2f}")

summary = parametric_bootstrap_se(table, "chao1", b=400, seed=11)
print(f"\nbootstrap sd over {summary.b} multinomial resamples: {summary.bootstrap_sd:.1f}")
print(f"bootstrap sd / claimed se: {summary.ratio:.2f}")
print("claimed se understated" if summary.understated else "claimed se holds up")
