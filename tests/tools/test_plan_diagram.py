"""Tests for the ASCII plan diagrams."""

from __future__ import annotations

import pytest

from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.tools.plan_diagram import (
    PlanDiagram,
    memory_plan_diagram,
    memory_selectivity_diagram,
)


class TestMemoryDiagram:
    def test_example_1_1_boundary_at_1000(self, example_query):
        d = memory_plan_diagram(example_query, 100.0, 10_000.0, width=80)
        assert d.n_plans == 2
        cells = d.grid[0]
        boundaries = [x for x, a, b in zip(d.x_values[1:], cells, cells[1:]) if a != b]
        assert len(boundaries) == 1
        # The true boundary is sqrt(1,000,000) = 1000; the sampled grid
        # localises it within one log-step.
        assert 900 <= boundaries[0] <= 1150

    def test_letters_and_legend_consistent(self, example_query):
        d = memory_plan_diagram(example_query, 100.0, 10_000.0, width=30)
        used = set(d.grid[0])
        assert used == set(d.legend)

    def test_low_memory_region_is_hash(self, example_query):
        d = memory_plan_diagram(example_query, 100.0, 10_000.0, width=30)
        assert "GH" in d.legend[d.letter_at(0)]
        assert "SM" in d.legend[d.letter_at(len(d.x_values) - 1)]

    def test_render_contains_axes_and_legend(self, example_query):
        d = memory_plan_diagram(example_query, 100.0, 10_000.0, width=30)
        text = d.render()
        assert "memory pages" in text
        assert " = " in text
        assert "100" in text and "10k" in text

    def test_grid_validation(self, example_query):
        with pytest.raises(ValueError):
            memory_plan_diagram(example_query, 0.0, 100.0)
        with pytest.raises(ValueError):
            memory_plan_diagram(example_query, 100.0, 10.0)
        with pytest.raises(ValueError):
            memory_plan_diagram(example_query, 10.0, 100.0, width=1)

    def test_log_spacing(self, example_query):
        d = memory_plan_diagram(example_query, 10.0, 1000.0, width=3)
        assert d.x_values == pytest.approx([10.0, 100.0, 1000.0])


@pytest.fixture
def three_way() -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec("R", pages=60_000.0),
            RelationSpec("S", pages=9_000.0),
            RelationSpec("T", pages=1_200.0),
        ],
        [
            JoinPredicate("R", "S", selectivity=2e-7, label="R=S"),
            JoinPredicate("S", "T", selectivity=1.4e-4, label="S=T"),
        ],
        rows_per_page=100,
    )


class TestSelectivityDiagram:
    def test_shape(self, three_way):
        d = memory_selectivity_diagram(
            three_way, "R=S", 50.0, 50_000.0, 1e-9, 1e-5, width=20, height=6
        )
        assert len(d.grid) == 6
        assert all(len(row) == 20 for row in d.grid)
        assert d.n_plans >= 2

    def test_unknown_predicate(self, three_way):
        with pytest.raises(ValueError):
            memory_selectivity_diagram(
                three_way, "nope", 50.0, 500.0, 1e-9, 1e-5
            )

    def test_selectivity_changes_plans(self, three_way):
        d = memory_selectivity_diagram(
            three_way, "R=S", 50.0, 50_000.0, 1e-9, 1e-5, width=16, height=8
        )
        # Top row (fattest selectivity) differs somewhere from the bottom.
        assert d.grid[0] != d.grid[-1]

    def test_render_marks_both_axes(self, three_way):
        d = memory_selectivity_diagram(
            three_way, "R=S", 50.0, 5_000.0, 1e-8, 1e-6, width=12, height=4
        )
        text = d.render()
        assert "selectivity of R=S" in text
        assert text.count("|") >= 4  # y-axis gutter

    def test_per_row_boundaries_and_letters(self, three_way):
        d = memory_selectivity_diagram(
            three_way, "R=S", 50.0, 50_000.0, 1e-9, 1e-5, width=16, height=8
        )
        for row in range(len(d.y_values)):
            cells = d.grid[row]
            # Every cell reads back through ``letter_at`` and names a plan
            # of the legend, on either side of each plan change.
            assert [d.letter_at(col, row=row) for col in range(len(cells))] == cells
            assert set(cells) <= set(d.legend)

    def test_n_plans_counts_legend(self, three_way):
        d = memory_selectivity_diagram(
            three_way, "R=S", 50.0, 50_000.0, 1e-9, 1e-5, width=16, height=6
        )
        assert d.n_plans == len(d.legend)
        assert d.n_plans == len({c for row in d.grid for c in row})


class TestDiagramDataclass:
    """PlanDiagram behaviour independent of any optimizer run."""

    def _manual(self):
        return PlanDiagram(
            x_label="x",
            x_values=[1.0, 2.0, 4.0],
            y_label="y",
            y_values=[0.1, 0.2],
            grid=[list("AAB"), list("ABB")],
            legend={"A": "plan-a", "B": "plan-b"},
        )

    def test_str_is_render(self):
        d = self._manual()
        assert str(d) == d.render()

    def test_2d_render_rows_top_down(self):
        # render() prints the last (largest-y) row first.
        text = self._manual().render().splitlines()
        assert text[0].endswith("ABB")
        assert text[1].endswith("AAB")


class TestAxisFormatting:
    """_fmt_axis edge cases, via rendered diagrams (the public surface)."""

    def _render_with_axes(self, xs, ys):
        n = len(xs)
        return PlanDiagram(
            x_label="x",
            x_values=list(xs),
            y_label="y",
            y_values=list(ys),
            grid=[["A"] * n for _ in ys],
            legend={"A": "p"},
        ).render()

    def test_scientific_for_extremes(self):
        text = self._render_with_axes([1e-7, 1e6], [1e-6, 2e-6])
        assert "1e-07" in text and "1e+06" in text

    def test_thousands_abbreviated(self):
        text = self._render_with_axes([1500.0, 99_000.0], [0.5, 0.7])
        assert "1.5k" in text and "99k" in text

    def test_zero_and_plain_values(self):
        text = self._render_with_axes([0.0, 42.0], [0.0, 1.0])
        assert "0" in text and "42" in text
