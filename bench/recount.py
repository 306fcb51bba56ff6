"""Recompute from scratch the fixed counts that the census check relies on.

    python3 bench/recount.py

Evaluates the left Leibniz identity on every GF(2) structure tensor of
dimensions 1, 2 and 3 with the benchmark's bit-sliced evaluator, then splits
the valid ones into GL(n, 2) orbits with the numpy basis changes.  Nothing
here imports `leibniz`.  Expected: 1/13/806 valid tensors in 1/4/20 orbits;
dimension 3 takes about 20 s.
"""

import json

import numpy as np

import oracles as orc


def main() -> None:
    counts = {}
    for dim in (1, 2, 3):
        valid, values = orc.gf2_valid_count(dim)
        _, keys = orc.gf2_orbits(values, dim)
        counts[dim] = {"valid": valid, "orbits": int(len(np.unique(keys)))}
        print(f"dimension {dim}: {valid} valid tensors in {counts[dim]['orbits']} GL({dim}, 2) orbits", flush=True)
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
