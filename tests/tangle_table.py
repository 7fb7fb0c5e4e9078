"""Report the three numbers every change to the tangle search states.

Run from the repository root::

    PYTHONPATH=src python tests/tangle_table.py

It prints:

- the seeds 0-9 table: ``three_tangle_upper`` of ``minus`` and ``plus`` from
  ``run_benchmark(DeviceParams.reference(), shots, seed, noise=True)`` with
  shots in {0, 10000} and seeds 0-9, 40 inputs, as a mean with per-input
  means and the shots-0 ranges;
- the held-out set, on which the descent's step budget is chosen: the same
  inputs at shots 0 and seeds 20-39, 40 inputs, as a mean, with the mean
  trials (tangle sums evaluated while a descent runs, after its start) and
  gradients per search;
- the excess over the GHZ/W roof (``test_entanglement.ghz_w_roof``) at
  p in {0.2, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9}, seeds 0-9, with W built as
  ``1/np.sqrt(3.0)`` and as ``3**-0.5``: per p the largest excess and how
  many of the 10 seeds are above the roof by more than 0.02;
- the excess over ``oracles.rank_two_roof`` on the 40 states of
  ``random_density(default_rng(2026), 8, 2)``, seeds 0-9: the seed-0 max and
  mean, the worst of seeds 0-9 per state, the mean of all 400, the most any
  search goes below the LP, and state 19 at seeds 5 and 7.

All searches run in one process with the default restart count. The rank-2
part solves 40 LPs and needs SciPy, like the rest of the oracles.
"""

from collections import Counter

import numpy as np

from oracles import random_density, rank_two_roof
import telebench.entanglement as entanglement
from telebench.circuit import DeviceParams
from telebench.entanglement import three_tangle_mixed_upper
from telebench.qops import DensityMatrix
from telebench.teleport_bench import ENTANGLED_INPUT_LABELS, run_benchmark
from test_entanglement import GHZ, ghz_w_roof

SEEDS = range(10)
GAP = 0.02


def seed_table() -> None:
    values = {(label, shots): [] for label in ENTANGLED_INPUT_LABELS for shots in (0, 10_000)}
    for shots in (0, 10_000):
        for seed in SEEDS:
            report = run_benchmark(DeviceParams.reference(), shots=shots, seed=seed, noise=True)
            for label in ENTANGLED_INPUT_LABELS:
                values[label, shots].append(report["states"][label]["three_tangle_upper"])
    everything = [v for column in values.values() for v in column]
    print(f"seeds 0-9 table: mean {np.mean(everything):.6f} over {len(everything)} inputs")
    for label in ENTANGLED_INPUT_LABELS:
        column = values[label, 0] + values[label, 10_000]
        zero = values[label, 0]
        print(f"  {label}: mean {np.mean(column):.6f}; shots 0 range {min(zero):.4f}-{max(zero):.4f}")


def held_out() -> None:
    counts = Counter()
    refining = False
    originals = {name: getattr(entanglement, name) for name in ("_refine", "_tangle_terms", "_tangle_gradient")}

    def refine(w):
        nonlocal refining
        counts["_refine"] += 1
        refining = True
        try:
            return originals["_refine"](w)
        finally:
            refining = False

    def counted(name):
        def call(*args):
            counts[name] += refining
            return originals[name](*args)

        return call

    entanglement._refine = refine
    for name in ("_tangle_terms", "_tangle_gradient"):
        setattr(entanglement, name, counted(name))
    try:
        values = []
        for seed in range(20, 40):
            report = run_benchmark(DeviceParams.reference(), shots=0, seed=seed, noise=True)
            values += [report["states"][label]["three_tangle_upper"] for label in ENTANGLED_INPUT_LABELS]
    finally:
        for name, function in originals.items():
            setattr(entanglement, name, function)
    searches = counts["_refine"]
    trials = (counts["_tangle_terms"] - searches) / searches
    print(f"held-out set, seeds 20-39, shots 0: mean {np.mean(values):.6f} over {len(values)} inputs")
    print(f"  per search: {trials:.2f} trials, {counts['_tangle_gradient'] / searches:.2f} gradients")


def ghz_w_excess() -> None:
    print(f"GHZ/W excess over the roof, seeds 0-9: max, inputs above {GAP}")
    for name, amplitude in (("1/np.sqrt(3.0)", 1 / np.sqrt(3.0)), ("3**-0.5", 3**-0.5)):
        w_state = np.zeros(8, dtype=complex)
        w_state[[1, 2, 4]] = amplitude
        cells = []
        for p in (0.2, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9):
            rho = DensityMatrix(p * np.outer(GHZ, GHZ.conj()) + (1.0 - p) * np.outer(w_state, w_state.conj()))
            excess = [three_tangle_mixed_upper(rho, seed=seed) - ghz_w_roof(p) for seed in SEEDS]
            cells.append(f"p={p} {max(excess):.3f} {sum(e > GAP for e in excess)}/10")
        print(f"  W as {name}: " + ", ".join(cells))


def rank_two_excess() -> None:
    rng = np.random.default_rng(2026)
    states = [random_density(rng, 8, 2) for _ in range(40)]
    roofs = np.array([rank_two_roof(rho) for rho in states])
    values = np.array([[three_tangle_mixed_upper(DensityMatrix(rho), seed=seed) for rho in states] for seed in SEEDS])
    excess = values - roofs
    worst = excess.max(axis=0)
    print("rank-2 excess over rank_two_roof, 40 states, seeds 0-9:")
    print(f"  seed 0: max {excess[0].max():.4f}, mean {excess[0].mean():.4f}, {np.sum(excess[0] > GAP)}/40 above {GAP}")
    print(f"  worst of seeds 0-9: max {worst.max():.4f}, {np.sum(worst > GAP)}/40 above {GAP}")
    print(f"  mean of all 400: {excess.mean():.5f}; lowest {excess.min():.2e}")
    print(f"  state 19: seed 5 {values[5, 19]:.4f}, seed 7 {values[7, 19]:.4f}, LP {roofs[19]:.4f}")


if __name__ == "__main__":
    seed_table()
    held_out()
    ghz_w_excess()
    rank_two_excess()
