"""Pipeline-versus-monolith comparison harness."""

import json
import random
from fractions import Fraction

import pytest

import paypipe.bench as bench
from paypipe.engine import CostTable
from paypipe.errors import ObservableMismatch
from paypipe.pipeline import parse_pipeline
from paypipe.bench import (
    build_pipeline_text,
    format_report,
    run_comparison,
)


class TestRunComparison:
    def test_default_shape(self):
        report = run_comparison()
        assert (report.recipients, report.periods) == (3, 3)
        assert report.deposit == 900
        assert report.txs_pipeline == report.txs_monolithic == 4

    def test_payroll_observables(self):
        report = run_comparison()
        assert len(report.payouts) == 9
        assert all(amount == 100 for _, amount, _ in report.payouts)
        assert sorted({at for _, _, at in report.payouts}) == [10, 20, 30]

    def test_pipeline_costs_more_by_default(self):
        assert run_comparison().ratio > 1

    def test_smallest_shape_still_favors_monolith(self):
        report = run_comparison(recipients=1, periods=1)
        assert report.ratio > 1

    def test_free_dispatch_narrows_but_keeps_the_gap(self):
        default_ratio = run_comparison().ratio
        free = run_comparison(cost_table=CostTable(node_call=0))
        assert 1 < free.ratio < default_ratio

    def test_pipeline_never_cheaper_under_random_tables(self):
        rng = random.Random(5)
        for _ in range(25):
            table = CostTable(
                tx_base=rng.randrange(0, 30000),
                node_call=rng.randrange(0, 5000),
                ledger_write=rng.randrange(0, 8000),
                ledger_read=rng.randrange(0, 500),
                event_emit=rng.randrange(0, 2000),
                config_read=rng.randrange(0, 300),
                predicate_eval=rng.randrange(0, 100),
            )
            report = run_comparison(recipients=rng.randint(1, 4),
                                    periods=rng.randint(1, 3),
                                    cost_table=table)
            assert report.gas_pipeline >= report.gas_monolithic

    def test_observables_match_across_shapes(self):
        for recipients in (1, 2, 5):
            for periods in (1, 4):
                report = run_comparison(recipients=recipients, periods=periods)
                assert len(report.payouts) == recipients * periods

    def test_weighted_split_carries_through(self):
        report = run_comparison(weights=[3, 2, 1])
        first_period = sorted(amount for _, amount, at in report.payouts
                              if at == 10)
        assert first_period == [50, 100, 150]

    def test_divergence_is_detected(self, monkeypatch):
        true_build = bench.build_monolith

        def skewed(recipients, periods, weights=None, cost_table=None):
            return true_build(recipients, periods, [2, 1, 1], cost_table)

        monkeypatch.setattr(bench, "build_monolith", skewed)
        with pytest.raises(ObservableMismatch):
            run_comparison()

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            run_comparison(recipients=0)
        with pytest.raises(ValueError):
            run_comparison(periods=0)
        with pytest.raises(ValueError):
            run_comparison(weights=[1, 1])  # wrong length for 3 recipients

    def test_ratio_is_exact_arithmetic(self):
        report = run_comparison()
        assert isinstance(report.ratio, Fraction)
        assert report.ratio == Fraction(report.gas_pipeline,
                                        report.gas_monolithic)


class TestFixtureShape:
    def test_default_pipeline_is_nine_nodes_eight_edges(self):
        spec = parse_pipeline(build_pipeline_text(3, 3))
        assert len(spec.nodes) == 9
        assert sum(len(n.outputs) for n in spec.nodes) == 8

    def test_single_recipient_uses_single_share_split(self):
        spec = parse_pipeline(build_pipeline_text(1, 1))
        (split,) = [n for n in spec.nodes if n.template == "distributing"]
        assert split.config.get("allow_single") is True

    def test_deposit_defaults_to_full_pool(self):
        spec = parse_pipeline(build_pipeline_text(4, 5))
        assert spec.balances["acme"] == 4 * 100 * 5


class TestFormatReport:
    def test_contains_reference_and_ratio(self):
        report = run_comparison()
        text = format_report(report)
        assert "257,874 vs 549,995" in text
        assert f"ratio: {float(report.ratio):.2f}x" in text

    def test_table_lists_both_fixtures(self):
        text = format_report(run_comparison())
        assert "pipeline" in text and "monolithic" in text

    def test_last_line_round_trips_the_report(self):
        report = run_comparison()
        last = format_report(report).strip().splitlines()[-1]
        assert json.loads(last) == json.loads(json.dumps(report.to_dict()))
