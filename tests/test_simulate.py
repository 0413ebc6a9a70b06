import math

import numpy as np
import pytest

import hazard2ts as h
from hazard2ts.cli import assemble_ungrouped
from hazard2ts.errors import DataError
from hazard2ts.simulate import _draw_ages, at_risk_matrix


FIELDS = ("id", "u", "s_entry", "s_exit", "cause")


def columns(table):
    return [getattr(table, name).tolist() for name in FIELDS]


def constant_spec(n=2000, seed=1, lam1=0.1, lam2=0.05, s_max=100.0, step=1e-3):
    return h.ScenarioSpec(
        hazards=(h.hazard_family("constant", level=lam1),
                 h.hazard_family("constant", level=lam2)),
        u_lo=50.0, u_hi=100.0, s_max=s_max, n=n, seed=seed, step=step,
    )


class TestHazardFamilies:
    def test_constant(self):
        f = h.hazard_family("constant", level=0.3)
        assert np.all(f(np.array([50.0, 60.0]), 2.0) == 0.3)

    def test_gompertz_growth(self):
        f = h.hazard_family("gompertz-in-u", level=0.01, slope=0.1, u_ref=50.0)
        assert f(50.0, 1.0) == pytest.approx(0.01)
        assert f(60.0, 1.0) == pytest.approx(0.01 * math.e)

    def test_unimodal_peaks_at_mode(self):
        f = h.hazard_family("unimodal-in-s", base=0.01, peak=0.2, mode=2.0)
        s = np.linspace(0.0, 10.0, 201)
        vals = f(55.0, s)
        assert s[np.argmax(vals)] == pytest.approx(2.0, abs=0.1)
        assert np.all(vals >= 0.01)

    def test_product_form_separates(self):
        f = h.hazard_family("product-form", level=0.02, slope=0.05, u_ref=50.0,
                            base=0.5, peak=1.0, mode=2.0)
        ratio = f(70.0, 3.0) / f(60.0, 3.0)
        assert ratio == pytest.approx(math.exp(0.05 * 10.0), rel=1e-12)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            h.hazard_family("bathtub")

    @pytest.mark.parametrize("name,params,unknown", [
        ("constant", {"level": 0.1, "slope": 0.5}, "slope"),
        ("gompertz-in-u", {"level": 0.1, "slope": 0.5, "mode": 2.0, "base": 1.0},
         "base, mode"),
        ("unimodal-in-s", {"base": 0.1, "peak": 0.2, "mode": 2.0, "u_ref": 50.0}, "u_ref"),
    ])
    def test_parameter_the_family_does_not_use_is_refused(self, name, params, unknown):
        """Once ignored: a constant hazard with a slope simulated at its level."""
        with pytest.raises(ValueError, match=f"hazard family '{name}' takes no parameter "
                                             f"{unknown}$"):
            h.hazard_family(name, **params)


class TestSimulateCohort:
    def test_no_hazard_means_all_censored(self):
        spec = h.ScenarioSpec(
            hazards=(h.hazard_family("constant", level=0.0),
                     h.hazard_family("constant", level=0.0)),
            u_lo=50.0, u_hi=60.0, s_max=5.0, n=50, seed=3,
        )
        records = h.simulate_cohort(spec)
        assert np.all(records.cause == 0) and np.all(records.s_exit == 5.0)

    def test_two_causes_draw_the_two_hazard_stream(self):
        """For two causes the cumulative draw is the earlier two-hazard step, float for float
        and draw for draw: cause 1 where r < p1, cause 2 where r < p1 + p2."""
        hazards = (h.hazard_family("unimodal-in-s", base=0.02, peak=0.08, mode=2.0),
                   h.hazard_family("gompertz-in-u", level=0.02, slope=0.055, u_ref=60.0))
        spec = h.ScenarioSpec(hazards=hazards, u_lo=50.0, u_hi=100.0, s_max=10.5, n=400,
                              seed=17, step=0.01, age_weights=np.array([1.0, 2.0, 1.0]))
        rng = np.random.default_rng(spec.seed)
        u = _draw_ages(spec, rng)
        s_exit = np.full(spec.n, spec.s_max)
        cause, alive = np.zeros(spec.n, dtype=int), np.arange(spec.n)
        for k in range(int(math.ceil(spec.s_max / spec.step - 1e-12))):
            s_now = k * spec.step
            width = min(spec.step, spec.s_max - s_now)
            p1, p2 = (np.asarray(fn(u[alive], s_now)) * width for fn in hazards)
            r = rng.random(alive.size)
            hit1 = r < p1
            hit2 = ~hit1 & (r < p1 + p2)
            hit = hit1 | hit2
            s_exit[alive[hit]] = s_now + width
            cause[alive[hit]] = np.where(hit1[hit], 1, 2)
            alive = alive[~hit]
        records = h.simulate_cohort(spec)
        assert np.array_equal(records.u, u) and np.array_equal(records.s_exit, s_exit)
        assert np.array_equal(records.cause, cause) and np.count_nonzero(cause == 2) > 0

    def test_three_cause_fractions_closed_form(self):
        # P(cause ell | any event) = lam_ell / sum(lam) for constant hazards
        lams = (0.1, 0.05, 0.08)
        spec = h.ScenarioSpec(hazards=tuple(h.hazard_family("constant", level=lam)
                                            for lam in lams),
                              u_lo=50.0, u_hi=100.0, s_max=100.0, n=3000, seed=13)
        records = h.simulate_cohort(spec)
        assert set(records.cause.tolist()) == {1, 2, 3}
        n_events = np.count_nonzero(records.cause != 0)
        for ell, lam in enumerate(lams, 1):
            p = lam / sum(lams)
            frac = np.count_nonzero(records.cause == ell) / n_events
            assert abs(frac - p) < 3.0 * math.sqrt(p * (1 - p) / n_events)

    def test_one_cause_fails_only_from_it(self):
        spec = h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.2),),
                              u_lo=50.0, u_hi=100.0, s_max=10.0, n=500, seed=2)
        records = h.simulate_cohort(spec)
        assert set(records.cause.tolist()) == {0, 1}
        assert np.all(records.s_exit[records.cause == 0] == 10.0)

    def test_a_scenario_needs_a_hazard(self):
        with pytest.raises(ValueError, match="at least one cause"):
            h.ScenarioSpec(hazards=(), u_lo=50.0, u_hi=100.0, s_max=10.0, n=5, seed=1)

    def test_cause_fraction_closed_form(self):
        # P(cause 1 | any event) = lam1 / (lam1 + lam2) = 2/3
        records = h.simulate_cohort(constant_spec(n=2000, seed=11))
        n_events = np.count_nonzero(records.cause != 0)
        frac = np.count_nonzero(records.cause == 1) / n_events
        tol = 3.0 * math.sqrt((2.0 / 9.0) / n_events)
        assert abs(frac - 2.0 / 3.0) < tol

    def test_survival_closed_form_at_one_year(self):
        records = h.simulate_cohort(constant_spec(n=5000, seed=12, s_max=10.0))
        surv = np.count_nonzero(records.s_exit > 1.0) / len(records)
        se = math.sqrt(math.exp(-0.15) * (1 - math.exp(-0.15)) / len(records))
        assert abs(surv - math.exp(-0.15)) < 4 * se

    def test_seed_determinism_bitwise(self):
        a = h.simulate_cohort(constant_spec(n=300, seed=21, s_max=10.0))
        b = h.simulate_cohort(constant_spec(n=300, seed=21, s_max=10.0))
        assert columns(a) == columns(b)

    def test_halving_step_changes_fraction_within_noise(self):
        rec1 = h.simulate_cohort(constant_spec(n=4000, seed=31, s_max=30.0, step=1e-3))
        rec2 = h.simulate_cohort(constant_spec(n=4000, seed=31, s_max=30.0, step=5e-4))
        fracs = []
        for recs in (rec1, rec2):
            fracs.append(np.count_nonzero(recs.cause == 1) / np.count_nonzero(recs.cause != 0))
        n_ev = min(np.count_nonzero(recs.cause != 0) for recs in (rec1, rec2))
        se_diff = math.sqrt(2.0 * (2.0 / 9.0) / n_ev)
        assert abs(fracs[0] - fracs[1]) < 2 * se_diff

    def test_oversized_step_probability_rejected(self):
        spec = constant_spec(n=10, seed=1, lam1=200.0, s_max=1.0)
        with pytest.raises(DataError, match="smaller simulation step"):
            h.simulate_cohort(spec)

    @pytest.mark.parametrize("cause", [1, 2])
    @pytest.mark.parametrize("level", [-0.1, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_hazard_rejected(self, cause, level):
        """Such a hazard once gave no failures from that cause (negative, NaN) without a
        word; it is refused, naming the cause."""
        levels = {1: 0.1, 2: 0.1, cause: level}
        spec = h.ScenarioSpec(hazards=tuple(h.hazard_family("constant", level=levels[ell])
                                            for ell in (1, 2)),
                              u_lo=50.0, u_hi=100.0, s_max=10.5, n=50, seed=1)
        with pytest.raises(DataError, match=f"^cause {cause}: hazard .* is negative or not "
                                            "finite$"):
            h.simulate_cohort(spec)

    def test_hazard_that_turns_negative_later_is_rejected(self):
        """The check runs at every step: a hazard negative past s = 2 only is refused too."""
        spec = h.ScenarioSpec(hazards=(lambda u, s: np.full(np.shape(u), 0.1 if s < 2 else -0.1),
                                       h.hazard_family("constant", level=0.1)),
                              u_lo=50.0, u_hi=100.0, s_max=10.5, n=2000, seed=1)
        with pytest.raises(DataError, match=r"^cause 1: hazard -0\.1 at \(u, s\) = \(.*, 2\)"):
            h.simulate_cohort(spec)

    @pytest.mark.parametrize("field", ["u_lo", "u_hi", "s_max", "step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_rejected(self, field, value):
        bounds = {"u_lo": 50.0, "u_hi": 100.0, "s_max": 10.5, "step": 1e-3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            h.ScenarioSpec(hazards=(h.hazard_family("constant", level=0.1),), n=10, seed=1,
                           **bounds)

    def test_cohort_size_guard(self):
        with pytest.raises(ValueError):
            constant_spec(n=0)

    def test_records_satisfy_ingest_schema(self, tmp_path):
        records = h.simulate_cohort(constant_spec(n=50, seed=5, s_max=5.0))
        path = tmp_path / "sim.csv"
        h.write_records_csv(path, records)
        assert columns(h.read_records_csv(path)) == columns(records)


class TestGroupedView:
    def test_collapse_then_compare_is_exact(self, constant_cohort, default_grid):
        fine = h.bin_records(constant_cohort, default_grid)
        C = h.composition_matrix(41, default_grid.n_u)
        N = at_risk_matrix(constant_cohort, default_grid)
        for ell in (1, 2):
            stacked = np.vstack([fine.Y[ell][:40], fine.Y[ell][40:].sum(axis=0, keepdims=True)])
            assert np.array_equal(C @ fine.Y[ell], stacked)
        assert np.array_equal(C @ N, np.vstack([N[:40], N[40:].sum(axis=0, keepdims=True)]))

    def test_no_tail_records_gives_zero_tail_row(self, default_grid):
        spec = constant_spec(n=200, seed=8, s_max=10.5)
        cohort = h.simulate_cohort(spec)
        young = cohort.u < 85.0
        records = h.RecordTable(*(getattr(cohort, name)[young] for name in FIELDS))
        C = h.composition_matrix(41, default_grid.n_u)
        fine = h.bin_records(records, default_grid)
        for ell in (1, 2):
            assert (C @ fine.Y[ell])[-1].sum() == 0.0
        assert (C @ at_risk_matrix(records, default_grid))[-1].sum() == 0.0

    def test_group_boundary_must_hit_an_edge(self, constant_cohort, default_grid):
        kv_u, kv_s = h.make_knots(50, 100, 13, 3), h.make_knots(0, 10.5, 7, 3)
        with pytest.raises(DataError):
            assemble_ungrouped(constant_cohort, default_grid, 90.25, kv_u, kv_s, 2,
                               h.SearchConfig((-1.0, 2.0), (-1.0, 2.0), 1.0), h.FitControl())

    def test_at_risk_counts_are_consistent(self, default_grid):
        records = h.RecordTable(*zip(
            ("a", 91.0, 0.0, 10.5, 0),   # survives everything
            ("b", 92.0, 0.0, 0.75, 1),   # exits in bin 2
            ("c", 93.0, 0.0, 0.5, 2),    # exits exactly at an edge
        ))
        N = at_risk_matrix(records, default_grid)
        tail = N[40:].sum(axis=0)
        assert tail[0] == 3.0           # all at risk at s = 0
        assert tail[1] == 2.0           # c left exactly at 0.5, b still at risk
        assert tail[2] == 1.0           # only a remains
        assert tail[-1] == 1.0          # a survives to the end of follow-up

    def test_at_risk_rejects_records_outside_the_grid(self, default_grid):
        # age 30 lies below the grid; it must not wrap around into the age-80 row
        records = h.RecordTable(*zip(("young", 30.0, 0.0, 1.0, 1), ("ok", 60.0, 0.0, 1.0, 1)))
        with pytest.raises(DataError) as err:
            at_risk_matrix(records, default_grid)
        assert err.value.details == ["young"]

    def test_exposure_reconstruction_identities(self):
        # half-bin rule on exact at-risk counts: survivors full width, exits half
        n_at_risk = np.array([[4.0, 3.0, 3.0, 0.0]])
        out = h.ungroup_exposure(n_at_risk, 0.5)
        assert np.allclose(out, [[3 * 0.5 + 0.25, 3 * 0.5, 0.75]])
