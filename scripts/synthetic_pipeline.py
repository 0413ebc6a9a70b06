#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Simulates a cohort whose cause-1 hazard is unimodal in time since diagnosis
and whose cause-2 hazard grows exponentially in age at diagnosis, coarsens
ages 90+ the way a register would, then runs the full pipeline: ungrouping,
smoothing-parameter selection, surface evaluation, and standard errors.
Prints a compact comparison of the fitted hazards against the simulation
truth and writes all artifacts to the output directory.

Usage:
    python scripts/synthetic_pipeline.py --out /tmp/demo [--n 30000] [--seed 11]
"""

import argparse
import dataclasses
import time
from pathlib import Path

import numpy as np

import hazard2ts as h
from hazard2ts.cli import RunConfig, run_fit_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--n", type=int, default=30000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    # the hazards of causes 1, 2, ...: a scenario may name any number of causes
    hazards = {1: h.hazard_family("unimodal-in-s", base=0.02, peak=0.08, mode=2.0),
               2: h.hazard_family("gompertz-in-u", level=0.02, slope=0.055, u_ref=60.0)}
    spec = h.ScenarioSpec(hazards=tuple(hazards.values()),
                          u_lo=50.0, u_hi=100.0, s_max=10.5,
                          n=args.n, seed=args.seed)

    t0 = time.perf_counter()
    records = h.simulate_cohort(spec)
    events = ", ".join(f"{np.count_nonzero(records.cause == ell)} cause-{ell} events"
                       for ell in hazards)
    print(f"simulated {len(records)} subjects ({events}) "
          f"in {time.perf_counter() - t0:.1f}s")

    # register-style coarsening: ages 90+ recorded only as the group boundary
    coarsened = dataclasses.replace(records, u=np.minimum(records.u, 90.0))

    cfg = RunConfig()
    cfg.pclm.enabled = True

    t0 = time.perf_counter()
    fits, surf = run_fit_pipeline(cfg, coarsened, args.out)
    print(f"pipeline finished in {time.perf_counter() - t0:.1f}s; "
          f"artifacts in {args.out}")

    # the fit has one hazard per cause code of the records: loop over them, not over 1, 2
    for ell in sorted(fits):
        fit = fits[ell]
        print(f"cause {ell}: log10 rho = ({fit.penalty.log10_rho_u:.2f}, "
              f"{fit.penalty.log10_rho_s:.2f}), ED = {fit.ed:.1f}, "
              f"BIC = {fit.bic:.1f}")

    run = cfg.setup()
    uu, ss = np.meshgrid(run.grid.u_mid, run.grid.s_mid, indexing="ij")
    interior = (slice(5, 45), slice(2, 19))
    print("\nfitted vs true hazard (median absolute relative error, interior):")
    for ell in sorted(fits):
        truth = hazards[ell](uu, ss)
        rel = np.abs(surf.hazard[ell][interior] / truth[interior] - 1.0)
        print(f"  cause {ell}: median {np.median(rel):.3f}, 90th pct "
              f"{np.quantile(rel, 0.9):.3f}")

    s_line = 10.0
    print(f"\ncumulative incidence at s = {s_line} by age at diagnosis:")
    ages = np.array([55.0, 70.0, 85.0])
    at_ages = h.surfaces_at_points(fits, ages, np.full(len(ages), s_line), run.delta)
    for i, u in enumerate(ages):
        cifs = {ell: at_ages.cif[ell][i, 0] for ell in sorted(fits)}
        surv = at_ages.survival[i, 0]
        listing = ", ".join(f"CIF{ell} = {cif:.3f}" for ell, cif in cifs.items())
        print(f"  u = {u:5.1f}: {listing}, S = {surv:.3f}, "
              f"sum = {sum(cifs.values()) + surv:.4f}")


if __name__ == "__main__":
    main()
