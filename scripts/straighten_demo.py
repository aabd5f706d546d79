#!/usr/bin/env python3
"""Flow a band-confined wiggle and watch it straighten toward the great circle."""
import argparse

import numpy as np

from spherecsf import (FlowConfig, GreatCircle, leafable_wiggle,
                       straightening_experiment)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--band", type=float, default=0.05,
                    help="initial height band of the wiggle")
    ap.add_argument("--barrier", type=float, default=0.08,
                    help="barrier halfwidth the flow must stay inside")
    ap.add_argument("--alignment", type=float, default=0.02,
                    help="deviation below which the curve counts as aligned")
    ap.add_argument("--mode", type=int, default=14)
    ap.add_argument("--nodes", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-time", type=float, default=0.5)
    ap.add_argument("--dt", type=float, default=1e-4)
    args = ap.parse_args()

    g = GreatCircle(np.array([0.0, 0.0, 1.0]))
    curve = leafable_wiggle(g.pole, band=args.band, mode=args.mode, n=args.nodes,
                            seed=args.seed)
    cfg = FlowConfig(dt=args.dt, snapshot_dt=0.02, max_time=args.max_time)
    res = straightening_experiment(curve, g, barrier_halfwidth=args.barrier,
                                   alignment=args.alignment, cfg=cfg)

    print(f"{'t':>8} {'deviation':>12} {'max height':>12} {'barrier':>10}")
    for t, dev, h, b in zip(res.times, res.deviations, res.max_heights,
                            res.barrier_heights):
        print(f"{t:8.4f} {dev:12.6e} {h:12.6e} {b:10.6f}")
    print(f"# contained in barrier: {res.containment_ok}")
    print(f"# first aligned at t = {res.first_aligned_time}")


if __name__ == "__main__":
    main()
