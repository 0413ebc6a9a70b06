"""Seeded benchmark inputs, drawn with numpy alone.

The inputs do not come from ``hazard2ts.simulate_cohort``: a later change to
the package's simulator or its random stream must not change what the two
commits of a comparison are fed.

Scenario (the one ``scripts/synthetic_pipeline.py`` uses): ages at diagnosis
uniform on [50, 100), follow-up to s = 10.5,

    cause 1: lambda1(s)    = 0.02 + 0.08 (s/2) exp(1 - s/2)   (unimodal in s)
    cause 2: lambda2(u)    = 0.02 exp(0.055 (u - 60))         (Gompertz in u)

Exit times are exact draws from the competing-risks law: the total
cumulative hazard is inverted by bisection and the cause is drawn with
probability lambda_cause / lambda_total at the exit time.  A share of the
subjects enters late (left truncation at s_entry > 0), which leaves the
hazards unchanged and exercises the late-entry paths of the binning code.
"""

from __future__ import annotations

import math

import numpy as np

U_LO, U_HI, S_MAX = 50.0, 100.0, 10.5
LATE_ENTRY_SHARE = 0.10      # subjects entering at s_entry ~ U(0, LATE_ENTRY_MAX)
LATE_ENTRY_MAX = 5.0
REGISTER_AGE = 90.0          # register coarsening: ages >= 90 are reported as 90

_PEAK, _MODE, _BASE = 0.08, 2.0, 0.02
_G_LEVEL, _G_SLOPE, _G_REF = 0.02, 0.055, 60.0


def hazard1(u, s):
    s = np.asarray(s, dtype=float)
    return np.broadcast_to(_BASE + _PEAK * (s / _MODE) * np.exp(1.0 - s / _MODE),
                           np.broadcast_shapes(np.shape(u), np.shape(s)))


def hazard2(u, s):
    u = np.asarray(u, dtype=float)
    return np.broadcast_to(_G_LEVEL * np.exp(_G_SLOPE * (u - _G_REF)),
                           np.broadcast_shapes(np.shape(u), np.shape(s)))


HAZARDS = {1: hazard1, 2: hazard2}


def cumhaz1(u, s):
    s = np.asarray(s, dtype=float)
    x = s / _MODE
    out = _BASE * s + _PEAK * _MODE * math.e * (1.0 - (1.0 + x) * np.exp(-x))
    return np.broadcast_to(out, np.broadcast_shapes(np.shape(u), np.shape(s)))


def cumhaz2(u, s):
    return hazard2(u, s) * np.asarray(s, dtype=float)


CUMHAZ = {1: cumhaz1, 2: cumhaz2}


def _cumhaz_total(u, s):
    return cumhaz1(u, s) + cumhaz2(u, s)


def cohort(seed: int, n: int):
    """Exact competing-risks cohort: dict of arrays u, s_entry, s_exit, cause."""
    rng = np.random.default_rng([seed, 1])
    u = rng.uniform(U_LO, U_HI, n)
    late = rng.random(n) < LATE_ENTRY_SHARE
    s_entry = np.where(late, rng.uniform(0.0, LATE_ENTRY_MAX, n), 0.0)
    target = _cumhaz_total(u, s_entry) + rng.exponential(1.0, n)
    pick = rng.random(n)

    censored = _cumhaz_total(u, S_MAX) <= target
    lo, hi = s_entry.copy(), np.full(n, S_MAX)
    for _ in range(60):                      # bracket width 10.5 / 2^60
        mid = 0.5 * (lo + hi)
        below = _cumhaz_total(u, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    s_exit = np.where(censored, S_MAX, hi)
    lam1, lam2 = hazard1(u, s_exit), hazard2(u, s_exit)
    cause = np.where(censored, 0, np.where(pick < lam1 / (lam1 + lam2), 1, 2))
    records = {"u": u, "s_entry": s_entry, "s_exit": s_exit, "cause": cause}
    check_occurrence_exposure(records)
    return records


def check_occurrence_exposure(records, z_max: float = 5.0):
    """Observed events against the true hazards' expected events, per cause and
    per quadrant of the (u, s) plane; raises if any differ by > z_max sigma."""
    u, a, b, cause = records["u"], records["s_entry"], records["s_exit"], records["cause"]
    for u_lo, u_hi in ((U_LO, 75.0), (75.0, U_HI)):
        rows = (u >= u_lo) & (u < u_hi)
        for s_lo, s_hi in ((0.0, 3.0), (3.0, S_MAX)):
            lo = np.clip(a[rows], s_lo, s_hi)
            hi = np.clip(b[rows], s_lo, s_hi)
            in_band = (b[rows] > s_lo) & (b[rows] <= s_hi)
            for ell, cum in CUMHAZ.items():
                expected = float(np.sum(cum(u[rows], hi) - cum(u[rows], lo)))
                observed = int(np.sum(in_band & (cause[rows] == ell)))
                if abs(observed - expected) > z_max * math.sqrt(max(expected, 1.0)):
                    raise RuntimeError(
                        f"generator self-check failed: cause {ell}, u in [{u_lo}, {u_hi}), "
                        f"s in ({s_lo}, {s_hi}]: {observed} events, {expected:.1f} expected")


def coarsen_register(records):
    """Ages at or above REGISTER_AGE reported as REGISTER_AGE, as registers do."""
    out = dict(records)
    out["u"] = np.minimum(records["u"], REGISTER_AGE)
    return out


def write_cohort_csv(path, records):
    u, a, b, c = records["u"], records["s_entry"], records["s_exit"], records["cause"]
    width = len(str(len(u)))
    lines = ["id,u,s_entry,s_exit,cause"]
    lines += [f"b{i:0{width}d},{u[i]:.17g},{a[i]:.17g},{b[i]:.17g},{c[i]}"
              for i in range(len(u))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def ts_points(seed: int, n: int):
    """Attained-age points (t, s), uniform over the (u, s) domain with t = u + s."""
    rng = np.random.default_rng([seed, 2])
    u = rng.uniform(U_LO, U_HI, n)
    s = rng.uniform(0.0, S_MAX, n)
    return u + s, s


def write_points_csv(path, t, s):
    lines = ["t,s"] + [f"{t[i]:.17g},{s[i]:.17g}" for i in range(len(t))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
