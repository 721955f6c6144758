"""Run every experiment in quick mode and assert the paper's claims hold.

These are the repository's headline regression tests: each experiment's
output table must exhibit the qualitative shape the paper predicts, not
just run without crashing.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.harness import run_experiment


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(exp_id: str):
        if exp_id not in cache:
            cache[exp_id] = run_experiment(exp_id, quick=True, seed=0)
        return cache[exp_id]

    return get


class TestE1Motivating:
    def test_lsc_chooses_plan1_lec_chooses_plan2(self, results):
        _, choosers, _ = results("E1")
        rows = {r["optimizer"]: r["chooses"] for r in choosers.rows}
        assert "Plan 1" in rows["LSC @ mode (2000)"]
        assert "Plan 1" in rows["LSC @ mean (1740)"]
        for algo in ("Algorithm A", "Algorithm B (c=3)", "Algorithm C"):
            assert "Plan 2" in rows[algo]

    def test_expected_costs_match_paper_arithmetic(self, results):
        costs, _, _ = results("E1")
        by_plan = {r["plan"]: r for r in costs.rows}
        p1 = by_plan["Plan 1 (sort-merge)"]
        assert p1["cost@2000"] == pytest.approx(2_800_000)
        assert p1["cost@700"] == pytest.approx(5_600_000)
        assert p1["expected"] == pytest.approx(3_360_000)
        p2 = by_plan["Plan 2 (LEC)"]
        assert p2["expected"] < p1["expected"]

    def test_monte_carlo_win_rate_paradox(self, results):
        _, _, monte = results("E1")
        plan1 = next(r for r in monte.rows if "Plan 1" in r["plan"])
        plan2 = next(r for r in monte.rows if "Plan 2" in r["plan"])
        # Plan 1 wins most runs yet has the higher mean.
        assert plan1["win_rate"] > 0.7
        assert plan1["mean"] > plan2["mean"]


class TestE2Variability:
    def test_ratio_one_at_zero_cv_and_grows(self, results):
        (table,) = results("E2")
        by_cv = {r["cv"]: r["mean_ratio"] for r in table.rows}
        assert by_cv[0.0] == pytest.approx(1.0)
        assert max(by_cv.values()) > 1.05
        # Largest CV should show a gap at least as big as the smallest
        # nonzero CV's.
        cvs = sorted(by_cv)
        assert by_cv[cvs[-1]] >= by_cv[cvs[1]] - 0.25

    def test_no_variability_no_gap_exactly(self, results):
        (table,) = results("E2")
        assert next(r["mean_ratio"] for r in table.rows if r["cv"] == 0.0) == 1.0


class TestE3Ladder:
    def test_algorithm_c_zero_regret(self, results):
        (table,) = results("E3")
        row = next(r for r in table.rows if r["algorithm"] == "Algorithm C")
        assert row["mean_regret_pct"] == pytest.approx(0.0, abs=1e-6)
        assert row["frac_optimal"] == 1.0

    def test_ladder_monotone(self, results):
        (table,) = results("E3")
        by = {r["algorithm"]: r["mean_regret_pct"] for r in table.rows}
        assert by["LSC @ mean"] >= by["Algorithm A"] - 1e-9
        assert by["Algorithm A"] >= by["Algorithm B (c=4)"] - 1e-9
        assert by["Algorithm B (c=4)"] >= by["Algorithm C"] - 1e-9

    def test_ladder_ends_without_tolerance(self, results):
        (table,) = results("E3")
        by = {r["algorithm"]: r["mean_regret_pct"] for r in table.rows}
        assert by["Algorithm C"] == 0.0
        assert by["LSC @ mean"] >= by["Algorithm A"]


class TestE4Overhead:
    def test_evals_scale_linearly_with_b(self, results):
        (table,) = results("E4")
        for row in table.rows:
            assert row["evals_ratio_vs_lsc"] == pytest.approx(row["b"], rel=0.01)


class TestE5Dynamic:
    def test_dynamic_never_loses_and_marginals_exact(self, results):
        (table,) = results("E5")
        for row in table.rows:
            assert row["mean_static_vs_dyn"] >= 1.0 - 1e-9
            assert row["mean_lsc_vs_dyn"] >= 1.0 - 1e-9
            assert row["marginal_eq_bruteforce"] is True


class TestE6Multiparam:
    def test_algorithm_d_never_loses(self, results):
        (table,) = results("E6")
        for row in table.rows:
            assert row["lsc_vs_D"] >= 1.0 - 1e-9
            assert row["C_vs_D"] >= 1.0 - 1e-9


class TestE7FastCost:
    def test_exact_agreement(self, results):
        (table,) = results("E7")
        for row in table.rows:
            assert row["max_rel_diff"] < 1e-9

    def test_speedup_grows_with_b(self, results):
        (table,) = results("E7")
        for method in ("SM", "NL", "GH"):
            rows = [r for r in table.rows if r["method"] == method]
            rows.sort(key=lambda r: r["b"])
            assert rows[-1]["time_speedup"] > rows[0]["time_speedup"]


class TestE8TopC:
    def test_bound_respected_and_correct(self, results):
        (table,) = results("E8")
        for row in table.rows:
            assert row["correct"] is True
            assert row["max_probes"] <= row["bound_c_clnc"] + 1e-9
            assert row["max_probes"] <= row["naive_c_sq"]


class TestE9Bucketing:
    def test_one_bucket_is_lsc_regret(self, results):
        (table,) = results("E9")
        b1 = [r for r in table.rows if r["b"] == 1]
        assert len({r["regret_pct"] for r in b1}) == 1  # all strategies equal

    def test_level_set_reaches_zero_before_equal_width(self, results):
        (table,) = results("E9")
        ls_zero_b = min(
            (r["b"] for r in table.rows
             if r["strategy"] == "level-set" and abs(r["regret_pct"]) < 1e-6),
            default=math.inf,
        )
        ew_zero_b = min(
            (r["b"] for r in table.rows
             if r["strategy"] == "equal-width" and abs(r["regret_pct"]) < 1e-6),
            default=math.inf,
        )
        assert ls_zero_b < math.inf
        assert ls_zero_b <= ew_zero_b


class TestE10Risk:
    def test_coincidence_regime(self, results):
        coincide, _ = results("E10")
        for row in coincide.rows:
            assert row["same_as_lec"] is True

    def test_risk_objectives_diverge(self, results):
        _, profile = results("E10")
        by = {r["objective"]: r for r in profile.rows}
        assert "SM" in by["ExpectedCost"]["plan"]
        assert "GH" in by["WorstCase"]["plan"]
        # Risk-averse pays a mean premium for zero spread.
        assert by["WorstCase"]["std"] == pytest.approx(0.0)
        assert by["WorstCase"]["E_cost"] >= by["ExpectedCost"]["E_cost"]
        assert by["ExpectedCost"]["plan"] != by["WorstCase"]["plan"]


class TestE11Executor:
    def test_measured_io_steps_down_with_memory(self, results):
        (table,) = results("E11")
        for method in ("SM", "BNL"):
            rows = sorted(
                (r for r in table.rows if r["method"] == method),
                key=lambda r: r["memory"],
            )
            ios = [r["measured_io"] for r in rows]
            assert ios[0] > ios[-1]
            assert all(a >= b for a, b in zip(ios, ios[1:]))

    def test_gh_in_memory_path_matches_model_exactly(self, results):
        (table,) = results("E11")
        gh = [r for r in table.rows if r["method"] == "GH"]
        best = max(gh, key=lambda r: r["memory"])
        assert best["ratio"] == pytest.approx(1.0)


class TestE12MonteCarlo:
    def test_lec_lowest_realized_mean(self, results):
        (table,) = results("E12")
        means = {r["optimizer"]: r["mean"] for r in table.rows}
        lec = means["Algorithm C"]
        assert all(lec <= m + 1e-6 for m in means.values())


class TestE13Strategies:
    def test_cost_ordering(self, results):
        (table,) = results("E13")
        cost = {r["strategy"]: r["E_cost"] for r in table.rows}
        lsc = cost["LSC @ mean (compile-time)"]
        lec = cost["LEC Algorithm C (compile-time)"]
        startup = cost["optimize at start-up"]
        param = cost["parametric / choice plan"]
        # start-up knowledge lower-bounds compile-time; LEC beats LSC.
        assert startup <= lec + 1e-9 <= lsc + 1e-9
        assert param == pytest.approx(startup)

    def test_effort_and_plan_size_tradeoffs(self, results):
        (table,) = results("E13")
        rows = {r["strategy"]: r for r in table.rows}
        # Parametric pays the most compile effort and stores more nodes
        # than LEC's single plan; start-up optimization pays per query.
        assert (
            rows["parametric / choice plan"]["compile_evals"]
            > rows["LEC Algorithm C (compile-time)"]["compile_evals"]
        )
        assert (
            rows["parametric / choice plan"]["stored_plan_nodes"]
            > rows["LEC Algorithm C (compile-time)"]["stored_plan_nodes"]
        )
        assert rows["optimize at start-up"]["per_execution_evals"] > 0


class TestE14Sampling:
    def test_narrow_prior_worthless_wide_prior_valuable(self, results):
        (table,) = results("E14")
        narrow = [r for r in table.rows if r["prior_spread"] == min(
            row["prior_spread"] for row in table.rows
        )]
        wide = [r for r in table.rows if r["prior_spread"] == max(
            row["prior_spread"] for row in table.rows
        )]
        assert all(abs(r["evsi"]) < 1.0 for r in narrow)
        assert any(r["evsi"] > 1000.0 for r in wide)

    def test_verdict_flips_with_probe_cost(self, results):
        (table,) = results("E14")
        wide = [r for r in table.rows if r["prior_spread"] == max(
            row["prior_spread"] for row in table.rows
        )]
        wide.sort(key=lambda r: r["probe_cost"])
        assert wide[0]["sample"] is True
        assert wide[-1]["sample"] is False


class TestE16Dependence:
    def test_zero_coupling_reduces_to_algorithm_d(self, results):
        (table,) = results("E16")
        row0 = min(table.rows, key=lambda r: r["coupling"])
        assert row0["coupling"] == 0.0
        assert row0["indep_vs_dep"] == pytest.approx(1.0, abs=1e-9)

    def test_dependence_awareness_pays_at_high_coupling(self, results):
        (table,) = results("E16")
        top = max(table.rows, key=lambda r: r["coupling"])
        assert top["indep_vs_dep"] > 1.0
        assert top["E_dependent"] <= top["E_independent_D"]

    def test_observing_the_latent_variable_helps_more(self, results):
        (table,) = results("E16")
        for row in table.rows:
            assert row["E_observe_load"] <= row["E_dependent"] + 1e-9


class TestE15Reoptimize:
    def test_adaptive_no_worse_than_static_in_aggregate(self, results):
        # Per-world overcorrections are possible (replanning still relies
        # on the estimates for the untouched joins); the per-row means
        # should not exceed static by more than a small margin.
        (table,) = results("E15")
        for row in table.rows:
            assert row["adaptive_vs_D"] <= row["static_vs_D"] * 1.05 + 1e-9

    def test_reopt_rate_grows_with_error(self, results):
        (table,) = results("E15")
        rows = sorted(table.rows, key=lambda r: r["rel_error"])
        assert rows[-1]["reopt_rate"] > rows[0]["reopt_rate"]


class TestE17Pipelining:
    def test_feature_saving_nonnegative(self, results):
        (table,) = results("E17")
        for row in table.rows:
            assert row["feature_saving_pct"] >= 0.0
            assert row["awareness_saving_pct"] >= -1e-9


class TestE18Misspecification:
    def test_well_specified_has_zero_regret(self, results):
        (table,) = results("E18")
        for row in table.rows:
            if row["factor"] == 1.0:
                assert abs(row["lec_misspec_regret_pct"]) < 1e-6

    def test_misspecified_lec_mostly_beats_lsc(self, results):
        (table,) = results("E18")
        for row in table.rows:
            assert row["lec_still_beats_lsc"] >= 0.5

    def test_spread_asymmetry(self, results):
        """Underestimating variability hurts far more than overestimating."""
        (table,) = results("E18")
        spread = {
            r["factor"]: r["lec_misspec_regret_pct"]
            for r in table.rows
            if r["distortion"] == "spread x"
        }
        factors = sorted(spread)
        assert spread[factors[0]] > spread[factors[-1]]


class TestE19Randomized:
    def test_randomized_near_optimal_where_checkable(self, results):
        import math

        (table,) = results("E19")
        checked = [
            r for r in table.rows if not math.isnan(r["mean_regret_pct"])
        ]
        assert checked
        sa = [r for r in checked if r["algorithm"] == "simulated annealing"]
        assert all(r["mean_regret_pct"] < 1.0 for r in sa)

    def test_scales_past_dp_range(self, results):
        import math

        (table,) = results("E19")
        big = [r for r in table.rows if math.isnan(r["frac_optimal"])]
        assert big
        assert all(r["mean_evals"] > 0 for r in big)

    def test_every_checkable_row_is_bounded(self, results):
        (table,) = results("E19")
        checked = [
            r for r in table.rows if not math.isnan(r["mean_regret_pct"])
        ]
        assert all(r["mean_regret_pct"] < 30.0 for r in checked)
        sa = [r for r in checked if r["algorithm"] == "simulated annealing"]
        assert all(r["frac_optimal"] >= 0.5 for r in sa)


class TestE20Feedback:
    def test_estimate_error_shrinks(self, results):
        (table,) = results("E20")
        rows = sorted(table.rows, key=lambda r: r["batch"])
        assert rows[0]["est_error_x"] > 10 * rows[-1]["est_error_x"]

    def test_regret_converges_to_oracle(self, results):
        (table,) = results("E20")
        rows = sorted(table.rows, key=lambda r: r["batch"])
        assert rows[0]["regret_vs_oracle"] > 1.5
        assert rows[-1]["regret_vs_oracle"] == pytest.approx(1.0)
        assert rows[-1]["regret_vs_oracle"] <= 1.0 + 1e-9

    def test_plan_flips_to_selective_dimension_first(self, results):
        (table,) = results("E20")
        rows = sorted(table.rows, key=lambda r: r["batch"])
        assert "dim_all" in rows[0]["plan"].split("NL")[1]
        assert "dim_sel" in rows[-1]["plan"].split("NL")[1]


class TestE21PlanSpace:
    def test_algorithm_c_exact_in_every_space(self, results):
        ladder, _ = results("E21")
        exact = [r for r in ladder.rows if r["algorithm"] == "Algorithm C"]
        assert {r["plan_space"] for r in exact} == {"left-deep", "zig-zag", "bushy"}
        for row in exact:
            assert row["mean_regret_pct"] == 0.0
            assert row["frac_optimal"] == 1.0

    def test_lsc_regret_survives_the_wider_space(self, results):
        ladder, _ = results("E21")
        lsc = [r for r in ladder.rows if r["algorithm"] == "LSC @ mean"]
        assert any(r["mean_regret_pct"] > 0.0 for r in lsc)

    def test_richer_spaces_only_gain(self, results):
        _, dividend = results("E21")
        gain = {
            r["plan_space"]: r["mean_gain_over_left_deep_pct"]
            for r in dividend.rows
        }
        assert gain["left-deep"] == 0.0
        # Dominance, up to float noise.
        assert gain["zig-zag"] >= -1e-9
        assert gain["bushy"] >= -1e-9


class TestE22Spju:
    def test_algorithm_c_exact_on_union_blocks(self, results):
        ladder, _ = results("E22")
        row = next(r for r in ladder.rows if r["algorithm"] == "Algorithm C")
        assert row["mean_regret_pct"] == 0.0
        assert row["frac_optimal"] == 1.0

    def test_lec_and_lsc_coincide_only_in_the_narrow_regime(self, results):
        # Chen & Schneider's setting: inside one linear piece of the
        # cost formulas the mean is sufficient; across a breakpoint not.
        _, coincidence = results("E22")
        by_regime = {r["regime"]: r for r in coincidence.rows}
        narrow = by_regime["linear (narrow)"]
        assert narrow["frac_coincide"] == 1.0
        assert abs(narrow["mean_lsc_excess_pct"]) < 1e-6
        straddling = by_regime["straddling"]
        assert straddling["frac_coincide"] < 1.0
        assert straddling["max_lsc_excess_pct"] > 0.0
