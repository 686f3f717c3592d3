#!/usr/bin/env python3
"""Theorem 1 on the signed-rate sweep: Lindblad-like generators with signed rates.

Generator ``seed``, for seeds 0-59, acts on M(2) and is ``sum_k c_k D_k``,
where ``D_k`` is the dissipator of one jump operator ``A_k`` with no
Hamiltonian.  The three rates ``c_k`` are drawn first, uniformly from
[-0.4, 1.0), by ``np.random.default_rng(seed)``; then each ``A_k`` is a
complex Gaussian divided by 2.  The semigroups are symmetric, so Theorem 1 applies; a negative
rate may or may not make one non-positive.

Runs Theorem 1 at the default settings and prints the verdict counts of every
condition, then the seeds whose three cone conditions (semigroup_positive,
resolvent_positive, resolvent_exp) disagree, with their margins.
"""

import argparse
from collections import Counter

import numpy as np

from posgen import (
    CONDITION_IDS,
    RunConfig,
    SemigroupHandle,
    Superoperator,
    build_superoperator,
    lindblad,
    theorem1_report,
)

SEEDS = 60
CONE_CONDITIONS = ("semigroup_positive", "resolvent_positive", "resolvent_exp")


def signed_rate_generator(seed: int) -> Superoperator:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-0.4, 1.0, 3)
    jumps = [(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
             for _ in rates]
    rep = sum(c * build_superoperator(lindblad(np.zeros((2, 2)), [a])).rep
              for c, a in zip(rates, jumps))
    return Superoperator(2, rep)


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    counts = {cid: Counter() for cid in CONDITION_IDS}
    disagree = []
    for seed in range(SEEDS):
        report = theorem1_report(SemigroupHandle(signed_rate_generator(seed)), RunConfig())
        for c in report.conditions:
            counts[c.condition_id][c.verdict] += 1
        cone = [report.by_id(cid) for cid in CONE_CONDITIONS]
        if len({c.verdict for c in cone}) > 1:
            disagree.append((seed, cone))

    verdicts = sorted({v for cnt in counts.values() for v in cnt})
    print(f"{'condition':<20}" + "".join(f"{v:>14}" for v in verdicts))
    for cid, cnt in counts.items():
        print(f"{cid:<20}" + "".join(f"{cnt[v]:>14}" for v in verdicts))
    print(f"\n{len(disagree)} of {SEEDS} seeds with disagreeing cone verdicts")
    for seed, cone in disagree:
        print(f"  seed {seed:>3}: " + "  ".join(
            f"{c.condition_id}={c.verdict} ({c.min_margin:+.3e})" for c in cone))


if __name__ == "__main__":
    main()
