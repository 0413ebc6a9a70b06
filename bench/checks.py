"""Output checks for benchmark jobs.  Each returns a list of problems (empty
when the outputs are right) plus, for fits, the hazard accuracy.

* fit: every table present and finite; |S + CIF1 + CIF2 - 1| within the
  acceptance suite's quadrature bound 3 * delta * max lambda; interior
  hazards close to the generator's closed-form truth.
* predict: sampled rows against a dense oracle built from model.json alone
  (scipy BSpline design rows, a dense x' Sigma x, and this file's own
  left-rectangle quadrature for CIFs and survival) and an own point-in-hull
  test for the extrapolation flag.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline

import gen

CAUSES = (1, 2)
FIT_TABLES = [f"cause{ell}/{name}.csv" for ell in CAUSES
              for name in ("hazard", "log_hazard_se", "cumhaz", "cif", "cif_se")]
FIT_TABLES += ["survival.csv", "fit_summary.json", "model.json"]

# interior region for hazard accuracy (as the synthetic pipeline reports it)
INTERIOR = {"u": (55.0, 95.0), "s": (1.0, 9.5)}
HAZARD_ERR_MAX = 0.10        # acceptance suite's recovery tolerance
ORACLE_RTOL, ORACLE_ATOL = 1e-9, 1e-13
_NODE_EPS = 1e-9             # node count slack, as documented for the quadrature


def _table(path):
    u, s, value = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
    return u, s, value


def interior_hazard_error(u, s, lam, cause):
    """Median |lambda_hat / lambda - 1| over interior points."""
    inside = ((u > INTERIOR["u"][0]) & (u < INTERIOR["u"][1])
              & (s > INTERIOR["s"][0]) & (s < INTERIOR["s"][1]))
    return float(np.median(np.abs(lam[inside] / gen.HAZARDS[cause](u[inside], s[inside]) - 1.0)))


def check_fit(outdir: Path):
    """Returns (problems, hazard_err)."""
    missing = [name for name in FIT_TABLES if not (outdir / name).is_file()]
    if missing:
        return [f"missing artefacts: {missing}"], math.nan
    problems = []
    tables = {}
    for name in FIT_TABLES:
        if name.endswith(".csv"):
            tables[name] = _table(outdir / name)
            if not np.all(np.isfinite(tables[name][2])):
                problems.append(f"{name}: non-finite values")
    delta = json.loads((outdir / "fit_summary.json").read_text())["quadrature_delta"]
    lam_max = max(tables[f"cause{ell}/hazard.csv"][2].max() for ell in CAUSES)
    total = (tables["survival.csv"][2]
             + sum(tables[f"cause{ell}/cif.csv"][2] for ell in CAUSES))
    gap = float(np.max(np.abs(total - 1.0)))
    if not gap <= 3.0 * delta * lam_max:
        problems.append(f"S + CIF1 + CIF2 off 1 by {gap:.3g} > {3.0 * delta * lam_max:.3g}")
    hazard_err = max(interior_hazard_error(*tables[f"cause{ell}/hazard.csv"], ell)
                     for ell in CAUSES)
    if not hazard_err <= HAZARD_ERR_MAX:
        problems.append(f"hazard_err {hazard_err:.4f} > {HAZARD_ERR_MAX}")
    return problems, hazard_err


# ---------------------------------------------------------------------------
# predict oracle

def _design(x, knots_payload):
    lo, hi = knots_payload["lo"], knots_payload["hi"]
    k, n_seg = knots_payload["degree"], knots_payload["n_segments"]
    h = (hi - lo) / n_seg
    knots = lo + h * np.arange(-k, n_seg + k + 1)
    return BSpline.design_matrix(np.clip(x, lo, hi), knots, k).toarray()


def _inside_hull(support, u, s, atol=1e-9):
    data = np.asarray(support["data"], dtype=float)
    if support["kind"] == "box":
        u_min, u_max, s_min, s_max = data
        return ((u_min - atol <= u) & (u <= u_max + atol)
                & (s_min - atol <= s) & (s <= s_max + atol))
    a, b = data, np.roll(data, -1, axis=0)
    cross = ((b[:, 0] - a[:, 0])[None, :] * (s[:, None] - a[:, 1][None, :])
             - (b[:, 1] - a[:, 1])[None, :] * (u[:, None] - a[:, 0][None, :]))
    return np.all(cross >= -atol * max(np.abs(data).max(), 1.0), axis=1)


def predict_oracle(model, u, s):
    """Dense per-point evaluation: dict of column name -> values."""
    grid_s = np.asarray(model["grid"]["s_edges"])
    delta = model["config"].get("delta") or (grid_s[1] - grid_s[0]) / 10.0
    causes = sorted(model["causes"], key=int)
    n_nodes = np.floor(s / delta + _NODE_EPS).astype(int)
    nodes = delta * np.arange(n_nodes.max())
    out, lam_nodes = {}, {}
    for key in causes:
        c = model["causes"][key]
        A = np.asarray(c["coefficients"])
        Sigma = np.asarray(c["covariance"])
        Bu = _design(u, c["knots_u"])
        Bs = _design(s, c["knots_s"])
        x = (Bs[:, :, None] * Bu[:, None, :]).reshape(len(u), -1)   # column-major vec
        eta = x @ A.flatten(order="F")
        se = np.sqrt(np.maximum(np.einsum("ip,pq,iq->i", x, Sigma, x), 0.0))
        out[f"hazard{key}"] = np.exp(eta)
        out[f"log_hazard_se{key}"] = se
        out[f"hazard_se{key}"] = np.exp(eta) * se
        lam_nodes[key] = np.exp(Bu @ A @ _design(nodes, c["knots_s"]).T)
    lam_total = sum(lam_nodes.values())
    for i in range(len(u)):
        K = n_nodes[i]
        cum_before = np.concatenate([[0.0], np.cumsum(lam_total[i, :K] * delta)])
        surv_nodes = np.exp(-cum_before[:K])
        for key in causes:
            out.setdefault(f"cif{key}", np.zeros(len(u)))[i] = np.sum(
                lam_nodes[key][i, :K] * surv_nodes * delta)
        out.setdefault("survival", np.zeros(len(u)))[i] = math.exp(-cum_before[K])
    out["extrapolated"] = ~_inside_hull(model["causes"][causes[0]]["support"], u, s)
    return out


def check_predict(out_csv: Path, model_path: Path, t, s, n_sample: int, seed: int):
    """Compare n_sample random rows of a --coords ts prediction with the oracle."""
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if len(lines) - 1 != len(t):
        return [f"{len(lines) - 1} prediction rows for {len(t)} points"]
    rows = np.random.default_rng([seed, 3]).choice(len(t), size=n_sample, replace=False)
    cells = [lines[1 + i].split(",") for i in rows]
    col = {name: [c[j] for c in cells] for j, name in enumerate(header)}
    u = t[rows] - s[rows]
    model = json.loads(model_path.read_text(encoding="utf-8"))
    expected = predict_oracle(model, u, s[rows])
    expected.update(u=u, s=s[rows], t=t[rows])

    problems = []
    for name, want in expected.items():
        if name not in col:
            problems.append(f"missing column {name}")
        elif name == "extrapolated":
            got = np.array([v == "true" for v in col[name]])
            if np.any(got != want):
                problems.append(f"extrapolated flag differs on {int(np.sum(got != want))} rows")
        else:
            got = np.array(col[name], dtype=float)
            bad = ~np.isclose(got, want, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
            if np.any(bad):
                worst = np.max(np.abs(got - want) / np.maximum(np.abs(want), ORACLE_ATOL))
                problems.append(f"{name}: {int(bad.sum())} rows off the oracle (worst rel {worst:.3g})")
    return problems
