#!/usr/bin/env python3
"""Sweep a non-positive generator into the dephasing cone.

Interpolates L_theta = (1 - theta) * L_flip + theta * L_dephasing and runs the
full equivalence report at each step.  The point of the experiment: the nine
condition margins change sign in the same narrow window, so the consistency
flag stays green along the whole path even though every individual verdict
flips.
"""

import argparse

import numpy as np

from posgen import (
    RunConfig,
    SemigroupHandle,
    Superoperator,
    build_superoperator,
    dephasing,
    flip_nonpositive,
    theorem1_report,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=20)
    args = ap.parse_args()

    flip = build_superoperator(flip_nonpositive(2)).rep
    deph = build_superoperator(dephasing(2)).rep
    cfg = RunConfig(seed=args.seed, samples=args.samples)

    header = None
    for theta in np.linspace(0.0, 1.0, args.steps):
        rep = (1 - theta) * flip + theta * deph
        h = SemigroupHandle(Superoperator(2, rep.astype(complex)))
        report = theorem1_report(h, cfg)
        if header is None:
            header = [c.condition_id for c in report.conditions]
            print(f"{'theta':>6}  " + "  ".join(f"{cid[:12]:>12}" for cid in header)
                  + "  consistent")
        margins = "  ".join(f"{c.min_margin:+12.2e}" for c in report.conditions)
        print(f"{theta:6.3f}  {margins}  {report.consistency_flag}")


if __name__ == "__main__":
    main()
