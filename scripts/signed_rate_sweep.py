#!/usr/bin/env python3
"""Theorems 1 and 2 on the signed-rate sweeps: Lindblad-like generators with signed rates.

Generator ``seed`` of the sweep on M(n), for n in (2, 3) and seeds 0-59, is
``sum_k c_k D_k``, where ``D_k`` is the dissipator of one jump operator
``A_k`` with no Hamiltonian.  The n + 1 rates ``c_k`` are drawn first,
uniformly from [-0.4, 1.0), by ``np.random.default_rng(seed)``; then each
``A_k`` is an n x n complex Gaussian divided by 2.  The semigroups are
symmetric and unital, so both theorems apply; a negative rate may or may not
make one non-positive.

For each sweep, runs both theorems at the default settings and prints the
verdict counts of every condition, the seeds whose three cone conditions
(semigroup_positive, resolvent_positive, resolvent_exp) disagree, with their
margins, the number of inconsistent Theorem 1 reports, and Theorem 2's
outcomes: hypothesis violations, consistent reports, and inconsistent ones,
on which ``posgen report`` exits 2.
"""

import argparse
from collections import Counter

import numpy as np

from posgen import (
    CONDITION_IDS,
    HypothesisViolation,
    RunConfig,
    SemigroupHandle,
    Superoperator,
    build_superoperator,
    lindblad,
    theorem1_report,
    theorem2_check,
)

SEEDS = 60
DIMENSIONS = (2, 3)
CONE_CONDITIONS = ("semigroup_positive", "resolvent_positive", "resolvent_exp")


def signed_rate_generator(n: int, seed: int) -> Superoperator:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-0.4, 1.0, n + 1)
    jumps = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 2
             for _ in rates]
    rep = sum(c * build_superoperator(lindblad(np.zeros((n, n)), [a])).rep
              for c, a in zip(rates, jumps))
    return Superoperator(n, rep)


def sweep(n: int) -> None:
    config = RunConfig()
    counts = {cid: Counter() for cid in CONDITION_IDS}
    disagree = []
    inconsistent = 0
    theorem2 = Counter()
    for seed in range(SEEDS):
        h = SemigroupHandle(signed_rate_generator(n, seed))
        report = theorem1_report(h, config)
        for c in report.conditions:
            counts[c.condition_id][c.verdict] += 1
        cone = [report.by_id(cid) for cid in CONE_CONDITIONS]
        if len({c.verdict for c in cone}) > 1:
            disagree.append((seed, cone))
        inconsistent += not report.consistency_flag
        try:
            consistent = theorem2_check(h, config).direction_consistency
            theorem2["consistent" if consistent else "exit 2"] += 1
        except HypothesisViolation:
            theorem2["hypothesis violations"] += 1

    print(f"signed-rate sweep on M({n}), seeds 0-{SEEDS - 1}")
    verdicts = sorted({v for cnt in counts.values() for v in cnt})
    print(f"{'condition':<20}" + "".join(f"{v:>14}" for v in verdicts))
    for cid, cnt in counts.items():
        print(f"{cid:<20}" + "".join(f"{cnt[v]:>14}" for v in verdicts))
    print(f"M({n}): {len(disagree)} of {SEEDS} seeds with disagreeing cone verdicts")
    for seed, cone in disagree:
        print(f"  seed {seed:>3}: " + "  ".join(
            f"{c.condition_id}={c.verdict} ({c.min_margin:+.3e})" for c in cone))
    print(f"M({n}): theorem1: {inconsistent} of {SEEDS} reports inconsistent")
    print(f"M({n}): theorem2: " + ", ".join(
        f"{theorem2[k]} {k}" for k in ("hypothesis violations", "consistent", "exit 2")))


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    for i, n in enumerate(DIMENSIONS):
        if i:
            print()
        sweep(n)


if __name__ == "__main__":
    main()
