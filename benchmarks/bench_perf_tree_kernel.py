"""Probe of the tree kernel: forest and boosting fits at two scales.

    PYTHONPATH=src python benchmarks/bench_perf_tree_kernel.py [--repeats 3] [--scale all]

Times the two tree ensembles of the AutoEnsemblers' pool,
``RandomForestRegressor(30, depth 8)`` and
``GradientBoostingRegressor(60, depth 3)``, on look-back windows:

- ``fit_suite`` scale: 45 windows x 3 lags of hyndsight[:48], the shape of
  most forest fits in perfbench's ``fit_suite`` workload;
- ``paper`` scale: 2,495 windows x 125 lags of the Sunspots surrogate's
  first 2,620 points, a full-length T-Daub training slice.

Each line gives the best fit time over ``--repeats`` repetitions (a
``fit_suite`` repetition averages 20 fits) and the SHA-256 of the fitted
model's predictions on its own windows.  Run it with ``PYTHONPATH``
pointing at two source trees: equal hashes mean the two kernels fit the
same trees.  It only prints; no file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import timeit

import numpy as np

from repro.data.univariate_suite import load_univariate_dataset
from repro.ml import GradientBoostingRegressor, RandomForestRegressor
from repro.transforms.window import make_supervised_windows

MODELS = {
    "forest(30, depth 8)": lambda: RandomForestRegressor(
        n_estimators=30, max_depth=8, random_state=0
    ),
    "boosting(60, depth 3)": lambda: GradientBoostingRegressor(
        n_estimators=60, max_depth=3, random_state=0
    ),
}
#: (scale, series, look-back, fits per timed repetition)
SCALES = {
    "fit_suite": (lambda: load_univariate_dataset("hyndsight")[:48], 3, 20),
    "paper": (lambda: load_univariate_dataset("Sunspots")[:2620], 125, 1),
}


def probe(scale: str, repeats: int) -> None:
    load, lookback, number = SCALES[scale]
    X, y = make_supervised_windows(load(), lookback=lookback, horizon=1)
    for name, make in MODELS.items():
        predictions = make().fit(X, y).predict(X)
        best = min(timeit.repeat(lambda: make().fit(X, y), number=number, repeat=repeats))
        digest = hashlib.sha256(np.ascontiguousarray(predictions).tobytes()).hexdigest()
        print(f"{scale:9s} {X.shape[0]:5d}x{X.shape[1]:<3d} {name:22s} "
              f"{best / number:9.4f} s  sha256 {digest[:16]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", choices=("all", *SCALES), default="all")
    args = parser.parse_args()
    for scale in SCALES if args.scale == "all" else (args.scale,):
        probe(scale, args.repeats)


if __name__ == "__main__":
    main()
