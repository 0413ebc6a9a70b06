"""Synthetic cohorts from known cause-specific hazard surfaces.

Event times are drawn by fine-step discrete-hazard simulation: at each step
of width delta an individual fails from cause ell with probability
lambda_ell * delta, for each of the causes 1..L, otherwise survives the step;
everyone still alive at the administrative horizon is right-censored there.
This handles arbitrary bivariate hazard closures uniformly; the step must
satisfy lambda * delta <= 0.1 everywhere or the first-order approximation is
rejected, as is a hazard value that is negative or not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lexis import LexisGrid, RecordTable, _fold, _tally

_MAX_STEP_PROB = 0.1


# the parameters of each hazard family; u_ref defaults to 0
_FAMILIES = {"constant": ("level",), "gompertz-in-u": ("level", "slope", "u_ref"),
             "unimodal-in-s": ("base", "peak", "mode"),
             "product-form": ("level", "slope", "u_ref", "base", "peak", "mode")}


def hazard_family(name: str, **params):
    """Analytic hazard closure from a named family.

    Families:
      constant:      level
      gompertz-in-u: level at u_ref, doubling controlled by slope (per year of u)
      unimodal-in-s: base + peak * (s / mode) * exp(1 - s / mode)
      product-form:  gompertz-in-u factor times a unimodal-in-s factor

    ValueError for an unknown family or a parameter the family does not take, KeyError
    naming the first parameter it needs that is missing.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown hazard family {name!r}")
    p = {"u_ref": 0.0, **{key: float(val) for key, val in params.items()}}
    missing = [key for key in _FAMILIES[name] if key not in p]
    if missing:
        raise KeyError(missing[0])
    unknown = sorted(set(params) - set(_FAMILIES[name]))
    if unknown:
        raise ValueError(f"hazard family {name!r} takes no parameter {', '.join(unknown)}")

    def fn(u, s):
        u, s = np.asarray(u, dtype=float), np.asarray(s, dtype=float)
        out = np.ones(np.broadcast_shapes(u.shape, s.shape))
        if "level" in p:                # constant, or the gompertz-in-u factor
            out = out * p["level"] * (np.exp(p["slope"] * (u - p["u_ref"])) if "slope" in p
                                      else 1.0)
        if "mode" in p:                 # the unimodal-in-s factor
            out = out * (p["base"] + p["peak"] * (s / p["mode"]) * np.exp(1.0 - s / p["mode"]))
        return out

    return fn


@dataclass
class ScenarioSpec:
    """Cohort generator settings: ``hazards``, the hazard closures ``fn(u, s)`` of causes
    1..L in order, the age mix and the horizon."""

    hazards: tuple
    u_lo: float
    u_hi: float
    s_max: float
    n: int
    seed: int
    step: float = 1e-3
    age_weights: np.ndarray = None  # piecewise-uniform weights over equal age slices

    def __post_init__(self):
        if not self.hazards:
            raise ValueError("need the hazard of at least one cause")
        for name in ("u_lo", "u_hi", "s_max", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n < 1:
            raise ValueError(f"cohort size must be >= 1, got {self.n}")
        if self.s_max <= 0 or self.step <= 0:
            raise ValueError("horizon and step must be positive")
        if self.u_hi <= self.u_lo:
            raise ValueError("age range must be positive")


def _draw_ages(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.age_weights is None:
        return rng.uniform(spec.u_lo, spec.u_hi, size=spec.n)
    w = np.asarray(spec.age_weights, dtype=float)
    w = w / w.sum()
    edges = np.linspace(spec.u_lo, spec.u_hi, len(w) + 1)
    slices = rng.choice(len(w), size=spec.n, p=w)
    return edges[slices] + rng.uniform(0.0, edges[1] - edges[0], size=spec.n)


def simulate_cohort(spec: ScenarioSpec) -> RecordTable:
    """Generate records, cause ell for a failure from ``spec.hazards[ell - 1]`` and 0 for
    censoring at the horizon; deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    u = _draw_ages(spec, rng)
    n = spec.n
    s_exit = np.full(n, spec.s_max)
    cause = np.zeros(n, dtype=int)
    alive = np.arange(n)

    n_steps = int(math.ceil(spec.s_max / spec.step - 1e-12))
    for step_idx in range(n_steps):
        if alive.size == 0:
            break
        s_now = step_idx * spec.step
        width = min(spec.step, spec.s_max - s_now)
        lam = np.array([np.broadcast_to(np.asarray(fn(u[alive], s_now), dtype=float),
                                        alive.shape) for fn in spec.hazards])
        # a NaN makes min and max NaN, which fails both tests
        if not (lam.min(initial=0.0) >= 0 and lam.max(initial=0.0) < math.inf):
            ell, i = np.argwhere(~np.isfinite(lam) | (lam < 0))[0]
            raise DataError(f"cause {ell + 1}: hazard {lam[ell, i]} at (u, s) = "
                            f"({u[alive[i]]:g}, {s_now:g}) is negative or not finite")
        p = lam * width
        worst = p.max(initial=0.0)
        if worst > _MAX_STEP_PROB:
            raise DataError(f"hazard * step = {worst:.3g} exceeds {_MAX_STEP_PROB}; "
                            "use a smaller simulation step")
        # one draw per individual: the first cause whose cumulative probability exceeds it
        hit = rng.random(alive.size) < np.cumsum(p, axis=0)
        any_hit = hit.any(axis=0)
        if np.any(any_hit):
            exits = alive[any_hit]
            s_exit[exits] = s_now + width
            cause[exits] = hit[:, any_hit].argmax(axis=0) + 1
            alive = alive[~any_hit]

    width = len(str(n))
    return RecordTable(id=[f"sim-{i:0{width}d}" for i in range(n)], u=u,
                       s_entry=np.zeros(n), s_exit=s_exit, cause=cause)


def at_risk_matrix(table: RecordTable, grid: LexisGrid) -> np.ndarray:
    """Fine-grid at-risk counts, n_u x (n_s + 1): column k counts the records at risk when
    s-bin k starts, and the last column those still under observation at the final bin edge.

    Records are checked against the grid as in :func:`bin_records`; the counts are those
    ``lexis.tally_records`` folds from blocks of records.
    """
    return _fold([_tally(table, grid)], grid).N
