"""README quickstart: fit HABIT on a synthetic KIEL sample and impute a gap.

Run from the repository root:

    PYTHONPATH=src python examples/quickstart.py
"""

from repro.core import HabitConfig, HabitImputer
from repro.eval.metrics import dtw_distance_m
from repro.experiments import common

data = common.prepare("KIEL", scale=0.05, cache_dir=".cache/repro")
imputer = HabitImputer(HabitConfig(resolution=9))
imputer.fit_from_trips(data.train)
gap = data.gaps(3600.0)[0]
path = imputer.impute(gap.start, gap.end)
dtw = dtw_distance_m(path.lats, path.lngs, gap.truth_lats, gap.truth_lngs)
print(f"imputed {path.num_points} points across a 1-hour gap (DTW {dtw:.0f} m)")
