"""Smooth cause-specific hazards over two time scales.

Competing-risks records are binned on a regular (age at diagnosis, time
since diagnosis) grid; per-cause hazard surfaces are penalized tensor-product
spline fits to the Poisson event counts with exposures as offsets.  Derived
quantities (cumulative hazards, overall survival, cumulative incidence) come
from rectangle-rule quadrature, standard errors from the delta method, and a
composite link model ungroups a coarse final age interval onto the fine grid.
"""

__version__ = "0.1.0"

import os

# One BLAS thread, set before numpy loads its BLAS: a second thread gains little on
# matrices of at most a few hundred rows, and the independent smoothing searches run on
# lanes, this process and forked worker processes (hazard2ts.cli), which would each start
# their own BLAS threads and compete for the cores.  A value the user has set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .basis import KnotVector, difference_matrix, evaluate_basis, make_knots
from .errors import ConvergenceError, DataError, DomainError, Hazard2tsError
from .glam import ArrayModelWorkspace, linear_predictor, weighted_inner, weighted_rhs
from .incidence import (
    BasisRows,
    Surfaces,
    age_at_diagnosis,
    compute_surfaces,
    cumulative_hazard,
    cumulative_incidence,
    evaluate_hazard,
    evaluate_log_hazard,
    overall_survival,
    surfaces_at_points,
    to_age_coordinates,
)
from .lexis import (
    BinnedData,
    LexisGrid,
    RecordTable,
    bin_records,
    build_grid,
    read_points_csv,
    read_records_csv,
    write_records_csv,
)
from .pclm import (
    CompositionSpec,
    PclmFit,
    composition_matrix,
    fit_pclm,
    select_pclm_smoothing,
    ungroup_events,
    ungroup_exposure,
)
from .simulate import GroupedCounts, ScenarioSpec, grouped_view, hazard_family, simulate_cohort
from .smooth2d import (
    FitControl,
    FittedHazard,
    PenaltyConfig,
    SearchConfig,
    fit_hazard,
    penalty_matrix,
    select_smoothing,
    zero_penalty,
)
from .uncertainty import cif_standard_errors, se_hazard, se_log_hazard, se_log_hazard_points
