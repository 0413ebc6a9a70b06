"""Batch front end: fit, ungroup, predict, simulate.

All commands read a key-value tree config (YAML) whose defaults match the
standard analysis setup: 1-year age bins on [50, 100], half-year follow-up
bins on [0, 10.5], 16 x 10 cubic spline bases, second-order differences,
BIC-selected smoothing, and ungrouping of ages 90+ onto [90, 100) when
enabled.  Outputs are long-format CSVs (u, s, value, extrapolated) with 17
significant digits plus JSON summaries and the model file, each written in one piece with
the bytes json.dump writes at ``indent=2, sort_keys=True`` (``write_json``); reruns with the
same config are byte-identical.  Every standard error, the CIFs' included, is a delta-method
one; ``fit --draws``, once a Monte-Carlo draw count, is accepted and ignored.  Independent
tasks run on lanes, whose results come back in task order as each is done.

Exit codes: 0 success, 2 data, domain and other package errors, 3 non-convergence.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import pickle
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import click
import numpy as np

from . import __version__
from .basis import KnotVector, difference_matrix, evaluate_basis, make_knots
from .errors import ConvergenceError, DataError, Hazard2tsError
from .incidence import (BasisRows, _thread_map, age_at_diagnosis, compute_surfaces,
                        in_support, quadrature_step, surfaces_at_points)
from .lexis import (BinnedData, LexisGrid, build_grid, read_points_csv, tally_records,
                    write_records_csv)
from .pclm import PHI_SEARCH, composition_matrix, select_pclm_smoothing, ungroup_exposure
from .simulate import ScenarioSpec, hazard_family, simulate_cohort
from .smooth2d import (FitControl, FittedHazard, PenaltyConfig, SearchConfig, check_criterion,
                       select_smoothing)
from .uncertainty import cif_standard_errors, se_log_hazard, se_log_hazard_points


# --------------------------------------------------------------------------
# configuration

@dataclass
class GridConfig:
    u_lo: float = 50.0
    u_hi: float = 100.0
    h_u: float = 1.0
    s_lo: float = 0.0
    s_hi: float = 10.5
    h_s: float = 0.5


@dataclass
class BasisConfig:
    c_u: int = 16
    c_s: int = 10
    degree: int = 3


_RHO_SEARCH = SearchConfig()     # the hazard search's defaults


@dataclass
class SelectionConfig:
    criterion: str = "BIC"
    log10_rho_u_range: tuple = _RHO_SEARCH.log10_rho_u_range
    log10_rho_s_range: tuple = _RHO_SEARCH.log10_rho_s_range
    coarse_step: float = _RHO_SEARCH.coarse_step


@dataclass
class PclmConfig:
    enabled: bool = False
    first_grouped_age: float = 90.0
    log10_phi_lo: float = PHI_SEARCH.log10_rho_u_range[0]
    log10_phi_hi: float = PHI_SEARCH.log10_rho_u_range[1]
    log10_phi_step: float = PHI_SEARCH.coarse_step


# what a run uses, built from a RunConfig by RunConfig.setup
RunSetup = namedtuple("RunSetup", "grid kv_u kv_s criterion search phi_search delta")


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    d: int = 2
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    pclm: PclmConfig = field(default_factory=PclmConfig)
    convergence: FitControl = field(default_factory=FitControl)
    delta: float = None  # quadrature step; None means h_s / 10

    def setup(self, ungroup: bool = False) -> RunSetup:
        """Build the library objects a run uses, each of which checks its own settings (ValueError
        or ArithmeticError).  The PCLM band is checked when the run ungroups: ``ungroup``, or
        ``pclm.enabled``."""
        g, sel, pclm = self.grid, self.selection, self.pclm
        grid = build_grid(g.u_lo, g.u_hi, g.h_u, g.s_lo, g.s_hi, g.h_s)
        kv_u, kv_s = make_bases(grid, self.basis)
        for kv in (kv_u, kv_s):
            difference_matrix(kv.n_basis, self.d)
        search = SearchConfig(tuple(sel.log10_rho_u_range), tuple(sel.log10_rho_s_range),
                              sel.coarse_step)
        phi = (pclm.log10_phi_lo, pclm.log10_phi_hi)
        phi_search = SearchConfig(phi, phi, pclm.log10_phi_step)
        if phi[0] == -math.inf:   # phi = 0: no unpenalized composite link fits the tail rows
            raise ValueError(f"pclm log10 phi range must be finite, got {phi}")
        if ungroup or pclm.enabled:
            grid.first_grouped_row(pclm.first_grouped_age)
        return RunSetup(grid, kv_u, kv_s, check_criterion(sel.criterion), search, phi_search,
                        quadrature_step(self.delta, grid.h_s))


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


# what a config value of each declared field type must be
_VALUE_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _update_dataclass(obj, data, prefix=""):
    """A copy of ``obj`` with the values of ``data``; frozen blocks check theirs when built."""
    fields = {f.name: f for f in dataclasses.fields(obj)}
    changes = {}
    for key, val in data.items():
        if key not in fields:
            raise DataError(f"unknown config key {prefix}{key!r}")
        cur = getattr(obj, key)
        if dataclasses.is_dataclass(cur):
            if not isinstance(val, dict):
                raise DataError(f"config key {prefix}{key} must be a mapping, got {val!r}")
            changes[key] = _update_dataclass(cur, val, prefix=f"{prefix}{key}.")
            continue
        kind, ok = _VALUE_KINDS[fields[key].type]
        if not (ok(val) or (val is None and fields[key].default is None)):
            raise DataError(f"config key {prefix}{key} must be {kind}, got {val!r}")
        changes[key] = tuple(val) if isinstance(val, list) else val
    return dataclasses.replace(obj, **changes)


def _read_yaml(path):
    """The document of a YAML file, {} when it is empty (a falsy document such as ``[]`` or
    ``0`` is returned as it is); DataError where it does not parse."""
    import yaml                 # here: `predict`, and `fit` without --config, read no YAML

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a YAML document: {exc}") from None
    return {} if doc is None else doc


def load_config(path=None, ungroup=False) -> RunConfig:
    """The config of a YAML file (defaults when None); DataError, before any input is read,
    for settings that no run can use."""
    data = {}
    if path is not None:
        data = _read_yaml(path)
        if not isinstance(data, dict):
            raise DataError(f"{path}: config must be a mapping")
    try:
        cfg = _update_dataclass(RunConfig(), data)
        cfg.setup(ungroup)
    except (ValueError, ArithmeticError) as exc:   # ArithmeticError: a grid count past floats
        raise DataError(f"bad run settings: {exc}") from None
    return cfg


def make_bases(grid: LexisGrid, basis_cfg: BasisConfig):
    """The (u, s) knot vectors of ``c_u`` and ``c_s`` basis functions over the grid."""
    return tuple(make_knots(edges[0], edges[-1], c - basis_cfg.degree, basis_cfg.degree)
                 for edges, c in ((grid.u_edges, basis_cfg.c_u), (grid.s_edges, basis_cfg.c_s)))


# --------------------------------------------------------------------------
# independent tasks on lanes: this process and forked worker processes

def _pickled(index, ok, value):
    """The pickle of task ``index``'s outcome ``(ok, value)``; where the value does not pickle,
    or an exception does not unpickle, that of a failure whose RuntimeError carries its text."""
    try:
        data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
        if not ok:
            pickle.loads(data)      # an exception that pickles may still not unpickle
        return data
    except Exception as exc:
        what = "result" if ok else "exception"
        return pickle.dumps((False, RuntimeError(
            f"task {index}: its {what} {value!r:.200} cannot leave its worker process: {exc}")))


def _fork_lane(tasks, lane, n_lanes):
    """The pid of a forked worker process that runs the tasks ``lane, lane + n_lanes, ...`` in
    ``_blas_threads`` up to the first that raises, writing each outcome's pickle to a pipe as
    it has it (a full pipe holds it back), and the pipe's read end as a file.  The worker
    leaves by ``os._exit``, with status 0 once it has written its last outcome."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:                # the worker: it never returns into the caller's frames
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as fh, _blas_threads():
                for index in range(lane, len(tasks), n_lanes):
                    fn, args, kwargs = tasks[index]
                    try:
                        ok, value = True, fn(*args, **kwargs)
                    except Exception as exc:
                        ok, value = False, exc
                    fh.write(_pickled(index, ok, value))
                    fh.flush()
                    if not ok:
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _openblas(name) -> list:
    """The ``name`` function (``"set_num_threads"``, ``"get_num_threads"``) of each OpenBLAS
    build loaded in this process: numpy's, and scipy's once scipy is loaded."""
    import ctypes               # here: only the search lanes use it

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for lib in map(ctypes.CDLL, libs):
        for symbol in (f"{prefix}{name}{suffix}" for prefix in ("scipy_openblas_", "openblas_")
                       for suffix in ("64_", "")):
            if hasattr(lib, symbol):
                found.append(getattr(lib, symbol))
                break
    return found


@contextlib.contextmanager
def _blas_threads():
    """Each OpenBLAS loaded in this process on the threads of ``OPENBLAS_NUM_THREADS`` inside
    the block, also where it was loaded before the variable was set, and on the count it had
    after the block."""
    import ctypes

    value = os.environ.get("OPENBLAS_NUM_THREADS", "")
    getters, setters = _openblas("get_num_threads"), _openblas("set_num_threads")
    for fn in getters:
        fn.restype = ctypes.c_int
    for fn in setters:
        fn.argtypes, fn.restype = [ctypes.c_int], None
    counts = [fn() for fn in getters]
    if value.isdigit() and int(value) > 0:     # else OpenBLAS kept its default: so does this
        for fn in setters:
            fn(int(value))
    try:
        yield
    finally:
        for fn, count in zip(setters, counts):
            fn(count)


def _lane_results(tasks):
    """``fn(*args, **kwargs) for fn, args, kwargs in tasks``, yielded in task order as each is
    done, the tasks dealt round-robin into one lane per usable CPU at most: this process runs
    lane 0 and forks a worker per other lane (``_fork_lane``), so one task or one CPU forks
    nothing.  Each lane stops at its first failing task, and the first in task order raises
    here, as in a serial run; a worker that ended before an outcome raises ChildProcessError,
    naming its exit status or signal, at that task.  Every worker is killed and reaped once
    the generator ends, raises or is closed, and this process runs in ``_blas_threads`` until
    then: a program that imported numpy before the package started numpy's default count,
    which this process and its forks would keep."""
    import signal               # here: only the lanes use it

    n_lanes = max(1, min(len(tasks), len(os.sched_getaffinity(0))))
    workers = {}                # lane: (pid, read end), until the worker is reaped
    try:
        for lane in range(1, n_lanes):
            workers[lane] = _fork_lane(tasks, lane, n_lanes)
        with _blas_threads():
            for index, (fn, args, kwargs) in enumerate(tasks):
                lane = index % n_lanes
                if lane == 0:
                    yield fn(*args, **kwargs)
                    continue
                pid, pipe = workers[lane]
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):     # none, or cut short
                    del workers[lane]
                    pipe.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                           if code < 0 else f"exited with status {code}")
                    raise ChildProcessError(f"worker process {pid} {how} before it returned "
                                            f"the result of task {index}") from None
                if not ok:
                    raise value
                yield value
    finally:
        for pid, pipe in workers.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _run_tasks(tasks) -> list:
    return list(_lane_results(tasks))


# --------------------------------------------------------------------------
# grouped-tail assembly

def assemble_ungrouped(records, grid, first_grouped_age, kv_u, kv_s, d, phi_search, ctrl):
    """(BinnedData, diagnostics) of records (a RecordTable, or the path of a records CSV, whose
    blocks are tallied on ``_lane_results``' lanes) whose ages from ``first_grouped_age`` (an
    interior u edge, else DataError) up are one grouped row: the binned rows 1..g-1 with the
    fitted tail rows ``Gamma[g-1:]`` under them, the exposure's by the half-bin rule.
    ``C @`` groups the counts and at-risk numbers, and the searches, one per cause and one for
    the at-risk numbers, run on ``_run_tasks``'s lanes, the first in this process."""
    g = grid.first_grouped_row(first_grouped_age) + 1
    C = composition_matrix(g, grid.n_u)
    fine, at_risk = tally_records(records, grid, _lane_results)
    Bu_mid = evaluate_basis(grid.u_mid, kv_u)
    Bs_mid = evaluate_basis(grid.s_mid, kv_s)
    Bs_edges = evaluate_basis(grid.s_edges, kv_s)

    options = {"d": d, "search": phi_search, "ctrl": ctrl}
    causes = sorted(fine.Y)
    *events, at_risk_fit = _run_tasks(
        [(select_pclm_smoothing, (C @ fine.Y[ell], C, Bu_mid, Bs_mid), options) for ell in causes]
        + [(select_pclm_smoothing, (C @ at_risk, C, Bu_mid, Bs_edges), options)])
    Y = {ell: np.vstack([fine.Y[ell][: g - 1], fit.Gamma[g - 1:]])
         for ell, fit in zip(causes, events)}
    diagnostics = {f"cause{ell}": _pclm_diag(fit) for ell, fit in zip(causes, events)}
    diagnostics["at_risk"] = _pclm_diag(at_risk_fit)
    R = np.vstack([fine.R[: g - 1], ungroup_exposure(at_risk_fit.Gamma[g - 1:], grid.h_s)])
    return BinnedData(grid=grid, Y=Y, R=R), diagnostics


def _pclm_diag(fit):
    """A PCLM fit's summary; "on edge" is the search's ``fit.on_edge``."""
    return {
        "log10_phi_u": fit.phis[0],
        "log10_phi_s": fit.phis[1],
        "log10_phi_u_on_edge": fit.on_edge[0],
        "log10_phi_s_on_edge": fit.on_edge[1],
        "aic": fit.aic,
        "ed": fit.ed,
        "deviance": fit.deviance,
        "iterations": fit.n_iter,
        "candidates": [
            {"log10_phi_u": lu, "log10_phi_s": ls, "aic": aic}
            for lu, ls, aic in fit.candidates
        ],
    }


# --------------------------------------------------------------------------
# output helpers

# rows formatted at a time: the kernel's arrays stay a few MB; blocks formatted at once
_BLOCK_ROWS = 4096
_BLOCKS_AT_ONCE = 8


def _write_table(path, header, columns, flags=None):
    """CSV of equal-length float columns, each float the text of ``'%.17g' % v``, then an
    optional true/false column; :mod:`.floattext` formats _BLOCK_ROWS rows at a time, up to
    _BLOCKS_AT_ONCE blocks at once on threads, which are written in order."""
    from .floattext import format_rows     # here: only a command that writes tables loads it

    columns = [np.asarray(col, dtype=float).ravel() for col in columns]
    flags = None if flags is None else np.ravel(flags)

    def text(lo):
        return format_rows([col[lo:lo + _BLOCK_ROWS] for col in columns],
                           None if flags is None else flags[lo:lo + _BLOCK_ROWS])

    blocks = range(0, len(columns[0]), _BLOCK_ROWS)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for at in range(0, len(blocks), _BLOCKS_AT_ONCE):
            fh.writelines(_thread_map(text, blocks[at:at + _BLOCKS_AT_ONCE]))


def write_long_csv(path, u_points, s_points, values, extrapolated=None, name="value"):
    """Long-format table over the product grid: u, s, value[, extrapolated]."""
    columns = (np.repeat(u_points, len(s_points)), np.tile(s_points, len(u_points)), values)
    _write_table(path, ["u", "s", name] + (["extrapolated"] if extrapolated is not None else []),
                 columns, extrapolated)


# RFC 8259 JSON has no number for a non-finite float (log10 rho = -inf, the AIC of a
# non-convergent candidate): they are written as these strings, as protobuf's JSON mapping does
_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _json_value(obj):
    """``obj`` as plain JSON values, non-finite floats as the strings of ``_NONFINITE``."""
    if isinstance(obj, np.ndarray) and np.isfinite(obj).all():
        return obj.tolist()
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json_value(obj.tolist())
    if isinstance(obj, dict):
        return {key: _json_value(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def _read_nonfinite(val):
    """A JSON value with the strings of ``_NONFINITE`` read back as floats.  A list of
    numbers alone is returned as it is, its entries' types tested at C level, so a
    covariance row is not walked entry by entry in Python."""
    if isinstance(val, dict):
        return {key: _read_nonfinite(v) for key, v in val.items()}
    if isinstance(val, list) and not {float, int}.issuperset(map(type, val)):
        return [_read_nonfinite(v) for v in val]
    return _NONFINITE.get(val, val) if isinstance(val, str) else val


# the text of each entry of an integer or float array, as json.dump writes that Python number
_ENTRY_TEXT = {"f": float.__repr__, "i": int.__repr__, "u": int.__repr__}


def _join_rows(rows, nl, brackets="[]"):
    """The text of a JSON list (an object with ``brackets="{}"``) whose items have the texts
    ``rows``, or, where ``rows`` nests lists of texts, of the nested lists."""
    if not rows:
        return brackets
    inner = nl + "  "
    if isinstance(rows[0], list):
        rows = [_join_rows(row, inner) for row in rows]
    return brackets[0] + inner + ("," + inner).join(rows) + nl + brackets[1]


def _array_text(arr, nl):
    """``_json_text`` of an integer or float array of at least one dimension: each entry's
    text made by one C-level call over ``tolist()``, a non-finite one replaced by the text of
    its ``_json_value`` string, and the texts joined a last-axis row at a time.  A square
    float64 array that is symmetric bit for bit (a fit's covariance ``0.5 * (H⁻¹ + H⁻ᵀ)``) has
    only its upper triangle rendered, and those texts are reused for the mirrored entries:
    comparing bits, not values, keeps a mirrored 0.0 from being written where -0.0 sits."""
    text = np.empty(arr.shape, dtype=object)
    square = arr.dtype == np.float64 and arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if square and np.array_equal(arr.view(np.uint64), arr.view(np.uint64).T):
        upper = np.triu_indices(len(arr))
        text[upper] = list(map(float.__repr__, arr[upper].tolist()))
        text.T[upper] = text[upper]
    else:
        text.reshape(-1)[:] = list(map(_ENTRY_TEXT[arr.dtype.kind], arr.ravel().tolist()))
    bad = ~np.isfinite(arr)
    if bad.any():
        text[bad] = [_json_text(val) for val in arr[bad].tolist()]
    return _join_rows(text.tolist(), nl)


def _json_text(obj, nl="\n"):
    """The text of ``json.dumps(_json_value(obj), indent=2, sort_keys=True, allow_nan=False)``,
    its lines after the first starting with ``nl`` (the line break and indent of the enclosing
    value), made by the C-level primitives json's encoder calls: ``encode_basestring_ascii``,
    ``int.__repr__`` and ``float.__repr__``.  TypeError for a value of no JSON type, and for a
    dict key that is not a str (where json.dump would write a number or bool key as text)."""
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in _ENTRY_TEXT:
        return _array_text(obj, nl)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = _json_value(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else _quote(_json_value(obj))
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        return _join_rows([_json_text(val, inner) for val in obj], nl)
    if isinstance(obj, dict):
        return _join_rows([f"{_quote(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)],
                          nl, "{}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload):
    """Write ``payload`` as the bytes json.dump writes for ``_json_value(payload)`` with
    ``indent=2, sort_keys=True, allow_nan=False``, then a newline (floats in Python's shortest
    repr), in one write once the whole text is built: a value that cannot be encoded raises
    before the file is opened, so an existing file at ``path`` is left as it was."""
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


def _knots_payload(kv: KnotVector):
    return {"degree": kv.degree, "lo": kv.boundary_lo, "hi": kv.boundary_hi,
            "n_segments": kv.n_basis - kv.degree}


def save_model(path, cfg: RunConfig, fits: dict):
    """Serialize fitted models, which share one grid, as one human-inspectable JSON document."""
    causes = {}
    for ell, fit in sorted(fits.items()):
        kind, data = fit.hull
        causes[str(ell)] = {
            "knots_u": _knots_payload(fit.kv_u),
            "knots_s": _knots_payload(fit.kv_s),
            "coefficients": fit.A,
            "covariance": fit.covariance,
            "penalty": {"d": fit.penalty.d,
                        "log10_rho_u": fit.penalty.log10_rho_u,
                        "log10_rho_s": fit.penalty.log10_rho_s},
            "deviance": fit.deviance, "ed": fit.ed, "aic": fit.aic, "bic": fit.bic,
            "n_bin": fit.n_bin, "iterations": fit.n_iter,
            "support": {"kind": kind, "data": np.asarray(data)},
        }
    grid = fits[min(fits)].grid
    payload = {
        "format": "hazard2ts-model",
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "grid": {"u_edges": grid.u_edges.tolist(), "s_edges": grid.s_edges.tolist()},
        "causes": causes,
    }
    write_json(path, payload)


def _read_support(support) -> tuple:
    """The hull of a model file's ``support`` entry: ``("polygon", vertices)``, an array of at
    least 3 rows of 2 finite numbers that make a convex polygon in counterclockwise order, or
    ``("box", (u_min, u_max, s_min, s_max))``, 4 finite numbers with each min <= its max;
    ValueError for anything else."""
    kind, data = support["kind"], support["data"]
    rows = data if kind == "polygon" else [data]
    width, least = {"polygon": (2, 3), "box": (4, 1)}.get(kind, (0, math.inf))
    ok = (isinstance(rows, list) and len(rows) >= least
          and all(isinstance(row, list) and len(row) == width and all(map(_is_number, row))
                  for row in rows))
    arr = np.array(rows if ok else math.nan, dtype=float)
    if not (np.isfinite(arr).all() and (kind == "polygon" or arr[0, 0] <= arr[0, 1]
                                        and arr[0, 2] <= arr[0, 3])):
        raise ValueError(f"support must be a polygon of at least 3 finite (u, s) vertices or "
                         f"a box of 4 finite numbers, each lo <= hi, not kind {kind!r} with "
                         f"data {data!r:.200}")
    if kind == "box":
        return kind, tuple(arr[0].tolist())
    # convex and counterclockwise: a positive signed area (shoelace) and every vertex on the
    # inner side of every edge, as ``in_support`` tests a point, so no right turn
    u, s = arr.T
    if not (np.sum(u * np.roll(s, -1) - np.roll(u, -1) * s) > 0
            and in_support((kind, arr), u, s).all()):
        raise ValueError(f"support polygon must be convex with its vertices in counterclockwise "
                         f"order, not {data!r:.200}")
    return kind, arr


def load_model(path):
    """The payload of a model file and its fits, every field restored (``candidates`` and
    ``on_edge`` as ``fit_hazard`` leaves them); DataError, naming the path, where the file is
    no model or a cause's coefficients or covariance do not have the shape its knots give, or
    its support is no hull (``_read_support``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _read_nonfinite(json.load(fh))
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "hazard2ts-model":
        raise DataError(f"{path}: not a model file")
    try:
        grid = LexisGrid(u_edges=np.asarray(payload["grid"]["u_edges"]),
                         s_edges=np.asarray(payload["grid"]["s_edges"]))
        fits = {}
        for key, entry in payload["causes"].items():
            ku, ks = entry["knots_u"], entry["knots_s"]
            pen = entry["penalty"]
            try:
                hull = _read_support(entry["support"])
            except ValueError as exc:
                raise DataError(f"{path}: cause {key}: {exc}") from None
            fit = FittedHazard(
                A=np.asarray(entry["coefficients"], dtype=float),
                penalty=PenaltyConfig(log10_rho_u=pen["log10_rho_u"],
                                      log10_rho_s=pen["log10_rho_s"], d=pen["d"]),
                kv_u=make_knots(ku["lo"], ku["hi"], ku["n_segments"], ku["degree"]),
                kv_s=make_knots(ks["lo"], ks["hi"], ks["n_segments"], ks["degree"]),
                grid=grid, deviance=entry["deviance"], ed=entry["ed"], aic=entry["aic"],
                bic=entry["bic"], n_bin=entry["n_bin"], n_iter=entry["iterations"],
                covariance=np.asarray(entry["covariance"], dtype=float),
                hull=hull,
            )
            shape = (fit.kv_u.n_basis, fit.kv_s.n_basis)
            for name, got, want in (("coefficients", fit.A.shape, shape),
                                    ("covariance", fit.covariance.shape, (math.prod(shape),) * 2)):
                if got != want:
                    raise DataError(f"{path}: cause {key}: {name} of shape {got}, where its "
                                    f"knots give {want}")
            fits[int(key)] = fit
        quadrature_step(payload["config"]["delta"], grid.h_s)   # the step predict integrates by
    except KeyError as exc:
        raise DataError(f"{path}: model file has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad model file entry: {exc}") from None
    if not fits:
        raise DataError(f"{path}: model file holds no cause")
    return payload, fits


# --------------------------------------------------------------------------
# commands

@click.group()
@click.version_option(version=__version__)
def main():
    """Cause-specific hazards over two time scales (age at diagnosis, time
    since diagnosis): smoothing, cumulative incidence, standard errors, and
    ungrouping of a coarse final age interval."""


@contextlib.contextmanager
def _exit_on_error(*also):
    """Report a package error, or one of the exception types ``also``, with its details and
    exit: 3 for non-convergence, 2 for anything else (data, domain, an unusable covariance)."""
    try:
        yield
    except (Hazard2tsError, *also) as exc:
        click.echo(f"error: {exc}", err=True)
        for detail in getattr(exc, "details", [])[:50]:
            click.echo(f"  {detail}", err=True)
        for point in getattr(exc, "points", [])[:50]:
            click.echo(f"  out of domain: {point}", err=True)
        sys.exit(3 if isinstance(exc, ConvergenceError) else 2)


@main.command("fit")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML config; defaults are used when omitted.")
@click.option("--out", "outdir", type=click.Path(file_okay=False), required=True)
@click.option("--draws", type=int, hidden=True, expose_value=False,
              help="Ignored: the CIF standard errors are closed-form.")
def cmd_fit(input_csv, config_path, outdir):
    """Fit the hazard of every cause 1..L (L the largest cause code) from an individual-record
    CSV and write hazard, SE, cumulative-hazard, CIF, and survival tables."""
    with _exit_on_error():
        run_fit_pipeline(load_config(config_path), input_csv, Path(outdir))


def run_fit_pipeline(cfg: RunConfig, records, outdir: Path):
    """Everything cmd_fit does after argument parsing (importable for tests): ``records`` is a
    RecordTable, or the path of a records CSV, whose blocks are tallied on ``_lane_results``'
    lanes and folded as they arrive.  ``outdir`` is made once the fits are done."""
    grid, kv_u, kv_s, criterion, search, phi_search, delta = cfg.setup()

    pclm_diag = None
    if cfg.pclm.enabled:
        binned, pclm_diag = assemble_ungrouped(records, grid, cfg.pclm.first_grouped_age, kv_u,
                                               kv_s, cfg.d, phi_search, cfg.convergence)
    else:
        binned = tally_records(records, grid, _lane_results)[0]

    options = {"d": cfg.d, "criterion": criterion, "search": search, "ctrl": cfg.convergence}
    causes = sorted(binned.Y)
    fits = dict(zip(causes, _run_tasks([(select_smoothing, (binned, ell, kv_u, kv_s), options)
                                        for ell in causes])))

    u_pts, s_pts = grid.u_mid, grid.s_mid
    surf = compute_surfaces(fits, u_pts, s_pts, delta=delta)
    cif_se = cif_standard_errors(fits, u_pts, s_pts, delta=delta)

    outdir.mkdir(parents=True, exist_ok=True)
    for ell in causes:
        sub = outdir / f"cause{ell}"
        sub.mkdir(exist_ok=True)
        se_eta = se_log_hazard(fits[ell], u_pts, s_pts)
        write_long_csv(sub / "hazard.csv", u_pts, s_pts, surf.hazard[ell],
                       surf.extrapolated, name="hazard")
        write_long_csv(sub / "log_hazard_se.csv", u_pts, s_pts, se_eta,
                       surf.extrapolated, name="log_hazard_se")
        write_long_csv(sub / "cumhaz.csv", u_pts, s_pts, surf.cumhaz[ell],
                       surf.extrapolated, name="cumhaz")
        write_long_csv(sub / "cif.csv", u_pts, s_pts, surf.cif[ell],
                       surf.extrapolated, name="cif")
        write_long_csv(sub / "cif_se.csv", u_pts, s_pts, cif_se[ell],
                       surf.extrapolated, name="cif_se")
    write_long_csv(outdir / "survival.csv", u_pts, s_pts, surf.survival,
                   surf.extrapolated, name="survival")

    summary = {
        "criterion": cfg.selection.criterion,
        "quadrature_delta": delta,
        "config": dataclasses.asdict(cfg),
        "causes": {
            str(ell): {
                "log10_rho_u": fits[ell].penalty.log10_rho_u,
                "log10_rho_s": fits[ell].penalty.log10_rho_s,
                "log10_rho_u_on_edge": fits[ell].on_edge[0],
                "log10_rho_s_on_edge": fits[ell].on_edge[1],
                "ed": fits[ell].ed,
                "deviance": fits[ell].deviance,
                "aic": fits[ell].aic,
                "bic": fits[ell].bic,
                "n_bin": fits[ell].n_bin,
                "iterations": fits[ell].n_iter,
            }
            for ell in causes
        },
        "extrapolation_mask": surf.extrapolated.astype(int),
    }
    if pclm_diag is not None:
        summary["pclm"] = pclm_diag
    write_json(outdir / "fit_summary.json", summary)
    save_model(outdir / "model.json", cfg, fits)
    return fits, surf


@main.command("ungroup")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out", "outdir", type=click.Path(file_okay=False), required=True)
def cmd_ungroup(input_csv, config_path, outdir):
    """Ungroup the final wide age interval of a cohort CSV onto the fine grid
    (records in the grouped tail carry any age at or above the first grouped
    age), writing fine-grid event counts, exposures, and search diagnostics."""
    with _exit_on_error():
        run_ungroup_pipeline(load_config(config_path, ungroup=True), input_csv, Path(outdir))


def run_ungroup_pipeline(cfg: RunConfig, records, outdir: Path):
    """Everything cmd_ungroup does after argument parsing, ``records`` as in
    :func:`run_fit_pipeline`; ``outdir`` is made once the searches are done."""
    run = cfg.setup(ungroup=True)
    grid = run.grid
    binned, diagnostics = assemble_ungrouped(records, grid, cfg.pclm.first_grouped_age,
                                             run.kv_u, run.kv_s, cfg.d, run.phi_search,
                                             cfg.convergence)
    outdir.mkdir(parents=True, exist_ok=True)
    for ell in sorted(binned.Y):
        write_long_csv(outdir / f"ungrouped_events_cause{ell}.csv",
                       grid.u_mid, grid.s_mid, binned.Y[ell], name="count")
    write_long_csv(outdir / "ungrouped_exposure.csv",
                   grid.u_mid, grid.s_mid, binned.R, name="exposure")
    write_json(outdir / "ungroup_diagnostics.json", diagnostics)
    return binned, diagnostics


@main.command("simulate")
@click.argument("scenario_yaml", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--n", type=int, default=None, help="Override the cohort size.")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
def cmd_simulate(scenario_yaml, out_csv, n, seed):
    """Draw a synthetic cohort from the hazard closures of the scenario's causes cause1 ..
    causeL and write it in the same CSV schema that `fit` ingests."""
    with _exit_on_error(ValueError):
        spec = scenario_from_dict(_read_yaml(scenario_yaml), n_override=n, seed_override=seed)
        records = simulate_cohort(spec)
        write_records_csv(out_csv, records)
        click.echo(f"wrote {len(records)} records to {out_csv}")


def scenario_from_dict(raw: dict, n_override=None, seed_override=None) -> ScenarioSpec:
    """The scenario of a parsed YAML document, its hazards those of ``cause1`` .. ``causeL``;
    DataError naming the key or hazard family parameter that is missing, unknown or mistyped."""
    if not isinstance(raw, dict):
        raise DataError(f"scenario must be a mapping, got {raw!r}")
    first_missing = next(ell for ell in range(1, len(raw) + 2) if f"cause{ell}" not in raw)
    causes = [f"cause{ell}" for ell in range(1, max(first_missing, 2))]
    blocks = {"age": raw.get("age", {}), **{key: raw.get(key) for key in causes}}
    for key, block in blocks.items():
        if not isinstance(block, dict):
            raise DataError(f"scenario key {key} must be a mapping, got {block!r}")
    for prefix, block, known in (("", raw, ("s_max", "n", "seed", "step", *blocks)),
                                 ("age.", blocks["age"], ("lo", "hi", "weights"))):
        for key in block:
            if key not in known:
                raise DataError(f"unknown scenario key {prefix}{key}")

    def number(key, default, kind=float, block=raw, prefix=""):
        val = block.get(key, default)
        try:   # a bool, or a number int() truncates, would read as another value: refused
            if isinstance(val, bool) or kind is int and _is_number(val) and int(val) != val:
                raise ValueError
            return kind(val)
        except (TypeError, ValueError, OverflowError):   # OverflowError: int(inf)
            what = "an integer" if kind is int and _is_number(val) else "a number"
            raise DataError(f"scenario key {prefix}{key} must be {what}, got {val!r}") from None

    def closure(key):
        params = dict(blocks[key])
        name = params.pop("name", None)
        params = {param: number(param, None, block=params, prefix=f"{key}.") for param in params}
        try:
            return hazard_family(name, **params)
        except KeyError as exc:
            raise DataError(f"scenario key {key}: hazard family {name!r} needs parameter "
                            f"{exc}") from None
        except (TypeError, ValueError) as exc:   # a parameter name that is no string, a family
            raise DataError(f"scenario key {key}: {exc}") from None

    age = blocks["age"]
    weights = age.get("weights")
    if weights is not None:
        try:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 1:
                raise ValueError
        except (TypeError, ValueError):
            raise DataError(f"scenario key age.weights must be a list of numbers, "
                            f"got {age['weights']!r}") from None
    return ScenarioSpec(
        hazards=tuple(map(closure, causes)),
        u_lo=number("lo", 50.0, block=age, prefix="age."),
        u_hi=number("hi", 100.0, block=age, prefix="age."),
        s_max=number("s_max", 10.5),
        n=n_override if n_override is not None else number("n", 1000, int),
        seed=seed_override if seed_override is not None else number("seed", 1, int),
        step=number("step", 1e-3),
        age_weights=weights,
    )


@main.command("predict")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--points", "points_csv", type=click.Path(exists=True, dir_okay=False),
              required=True, help="CSV with columns u,s (or t,s with --coords ts).")
@click.option("--coords", type=click.Choice(["us", "ts"]), default="us")
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
def cmd_predict(model_path, points_csv, coords, out_csv):
    """Evaluate a saved model at arbitrary points: hazards, their SEs, CIFs,
    survival, and an extrapolation flag per point."""
    with _exit_on_error():
        run_predict_pipeline(model_path, points_csv, coords, out_csv)


def _read_points(path, coords):
    """The point columns of a points CSV: ``u`` (``t`` for ``coords == "ts"``) and ``s``."""
    return read_points_csv(path, "u" if coords == "us" else "t")


def run_predict_pipeline(model_path, points_csv, coords, out_csv):
    payload, fits = load_model(model_path)
    first, s_arr = _read_points(points_csv, coords)
    delta = payload["config"].get("delta")   # None: the default step of the quadrature

    u_arr = age_at_diagnosis(first, s_arr) if coords == "ts" else first
    # one point set: each distinct knot vector's rows serve the surfaces and the SEs
    u_rows, s_rows = BasisRows(u_arr), BasisRows(s_arr)
    surf = surfaces_at_points(fits, u_rows, s_rows, delta=delta)
    se_eta = {ell: se_log_hazard_points(fits[ell], u_rows, s_rows) for ell in fits}

    cols, columns = ["u", "s"], [u_arr, s_arr]
    if coords == "ts":
        cols.append("t")
        columns.append(first)
    for ell in sorted(fits):
        lam = surf.hazard[ell][:, 0]
        cols += [f"hazard{ell}", f"log_hazard_se{ell}", f"hazard_se{ell}", f"cif{ell}"]
        columns += [lam, se_eta[ell], lam * se_eta[ell], surf.cif[ell][:, 0]]
    _write_table(out_csv, cols + ["survival", "extrapolated"],
                 columns + [surf.survival[:, 0]], surf.extrapolated)
    return out_csv


if __name__ == "__main__":
    main()
