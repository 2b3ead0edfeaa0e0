"""Tests of the benchmark's own logic: statistics, self times, failure
counting, output checks and wrapper installation."""

import copy
import sys
import types

import pytest

from perfbench import checks, spans, stats
from perfbench.run import parse_importtime
from perfbench.worker import Tally


class TestTailRule:
    def test_hundred_samples_give_p90(self):
        assert stats.tail(range(1, 101)) == (90, 90, 100)

    def test_thousand_samples_give_p99(self):
        level, value, count = stats.tail(range(1, 1001))
        assert (level, value, count) == (99, 990, 1000)

    def test_ten_beyond_is_enough_nine_is_not(self):
        # p80 of 1..50 is 40 with 10 samples beyond; p81 would be 41 with 9
        assert stats.tail(range(1, 51)) == (80, 40, 50)

    def test_too_few_samples_report_the_maximum(self):
        assert stats.tail([5, 1, 3]) == (100, 5, 3)
        assert stats.tail(range(11))[0] == 9

    def test_order_of_samples_does_not_matter(self):
        assert stats.tail([3, 1, 2] * 40) == stats.tail(sorted([3, 1, 2] * 40))


def test_interquartile_mean_drops_each_outer_quarter():
    assert stats.interquartile_mean([100, 1, 2, 3, 4, 5, 6, -50]) == 3.5
    assert stats.interquartile_mean([2, 4, 9]) == 5
    with pytest.raises(ValueError):
        stats.interquartile_mean([])


class TestSelfTimes:
    def test_hand_built_tree(self):
        # 0: [0, 100] root; 1: [10, 30] and 2: [40, 90] children of 0;
        # 3: [50, 60] child of 2; 4: [200, 210] a second root.
        start = [0, 10, 40, 50, 200]
        end = [100, 30, 90, 60, 210]
        parent = [-1, 0, 0, 2, -1]
        assert spans.self_times(start, end, parent) == [30, 20, 40, 10, 10]

    def test_overlapping_children_count_once_and_are_clipped(self):
        start = [0, 10, 20, 90]
        end = [100, 40, 50, 130]
        parent = [-1, 0, 0, 0]
        # children cover [10, 50] and [90, 100] of the parent
        assert spans.self_times(start, end, parent)[0] == 100 - 40 - 10


class TestFailureCounting:
    def test_fail_ratio(self):
        assert stats.fail_ratio(200, 0) == 0.0
        assert stats.fail_ratio(200, 3) == 0.015
        with pytest.raises(ValueError):
            stats.fail_ratio(0, 0)
        with pytest.raises(ValueError):
            stats.fail_ratio(5, 6)

    def test_tally_counts_operations_and_keeps_first_problems(self):
        tally = Tally()
        tally.add([])
        tally.add(["wrong"])
        tally.add(["bad rounds"], failed=7, attempted=100)
        assert (tally.attempted, tally.failed) == (102, 8)
        assert tally.problems == ["wrong", "bad rounds"]


def simulate_report(rounds=9000, successes=None):
    per = rounds // 9
    return {
        "command": "simulate", "pass": successes in (None, rounds),
        "checks": [{"name": "retrodiction-success", "pass": True, "max_deviation": 0.0}],
        "data": {
            "rounds": rounds, "successes": rounds if successes is None else successes,
            "basis_choices": [rounds // 4] * 4,
            "king_outcomes": [[rounds // 12] * 3 for _ in range(4)],
            "physicist_outcomes": [per] * 9,
        },
    }


class TestOutputChecks:
    def test_a_correct_simulate_report_passes(self):
        assert checks.simulate_failures(simulate_report(), 9000) == (0, [])

    def test_a_failed_round_fails_that_round(self):
        report = simulate_report(successes=8999)
        failed, problems = checks.simulate_failures(report, 9000)
        assert failed == 1 and problems == ["1 retrodiction failures"]

    def test_biased_outcomes_fail_every_round(self):
        report = simulate_report()
        report["data"]["king_outcomes"][2] = [1000, 500, 750]
        failed, problems = checks.simulate_failures(report, 9000)
        assert failed == 9000 and "chi2" in problems[0]

    def test_counts_that_do_not_add_up_fail(self):
        report = simulate_report()
        report["data"]["physicist_outcomes"][0] += 1
        assert checks.simulate_failures(report, 9000)[0] == 9000

    def test_a_pass_flag_that_lies_fails(self):
        report = simulate_report(successes=8990)
        report["pass"] = True
        assert checks.simulate_failures(report, 9000)[0] == 9000

    @pytest.fixture(scope="class")
    def reports(self):
        from retroking import cli

        return {command: cli.run(cli.RunConfig(command))
                for command in ("verify", "search-bases", "tomography")}

    def test_real_reports_pass(self, reports):
        for report in reports.values():
            assert checks.report_problems(report) == []
        from retroking import cli

        report = cli.run(cli.RunConfig("simulate", rounds=2000, seed=5))
        assert checks.report_problems(report, 2000) == []

    def test_search_with_71_bases_fails(self, reports):
        report = copy.deepcopy(reports["search-bases"])
        report["data"]["bases"].pop()
        report["data"]["count"] = 71
        assert any("71 label sets" in p for p in checks.report_problems(report))

    def test_search_with_a_changed_label_fails_the_digest(self, reports):
        report = copy.deepcopy(reports["search-bases"])
        report["data"]["bases"][5][0] = [2, 2, 2, 2]
        assert "label sets differ from the canonical 72" in checks.report_problems(report)

    def test_search_without_the_reference_set_fails(self, reports):
        report = copy.deepcopy(reports["search-bases"])
        index = report["data"]["reference_index"]
        report["data"]["bases"][index] = report["data"]["bases"][index - 1]
        assert "the reference label set is missing" in checks.report_problems(report)

    def test_verify_with_a_failing_or_missing_check_fails(self, reports):
        report = copy.deepcopy(reports["verify"])
        report["checks"][3]["pass"] = False
        assert checks.report_problems(report)
        report = copy.deepcopy(reports["verify"])
        del report["checks"][0]
        assert any("lacks checks" in p for p in checks.report_problems(report))

    def test_verify_may_gain_checks(self, reports):
        report = copy.deepcopy(reports["verify"])
        report["checks"].append({"name": "exact-certificate", "pass": True,
                                 "max_deviation": 0.0})
        assert checks.report_problems(report) == []

    def test_tomography_with_a_large_error_fails(self, reports):
        report = copy.deepcopy(reports["tomography"])
        report["data"]["reconstruction_error"] = 1e-3
        assert checks.report_problems(report)


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package where one module imports the other's function by name."""
    linalg = types.ModuleType("fakepkg.linalg")
    protocol = types.ModuleType("fakepkg.protocol")
    package = types.ModuleType("fakepkg")

    def born_probabilities(x):
        return x + 1

    def run_round(x):
        return protocol.born_probabilities(x) * 2

    linalg.born_probabilities = born_probabilities
    protocol.born_probabilities = born_probabilities
    protocol.run_round = run_round
    package.run_round = run_round
    for name, module in (("fakepkg", package), ("fakepkg.linalg", linalg),
                         ("fakepkg.protocol", protocol)):
        monkeypatch.setitem(sys.modules, name, module)
    return package, linalg, protocol


class TestTracer:
    def test_wrappers_go_where_callers_look(self, fake_package):
        package, linalg, protocol = fake_package
        tracer = spans.Tracer("test")
        tracer.install("fakepkg")
        tracer.phase = spans.PHASES.index("workload")
        assert package.run_round(1) == 4
        names = [tracer.names[n] for n in tracer.name]
        assert names == ["protocol.run_round", "linalg.born_probabilities"]
        assert list(tracer.parent) == [-1, 0]
        assert protocol.born_probabilities is linalg.born_probabilities

    def test_missing_functions_make_metrics_absent_not_errors(self, fake_package):
        package, _, _ = fake_package
        tracer = spans.Tracer("test")
        tracer.install("fakepkg")
        tracer.phase = spans.PHASES.index("workload")
        package.run_round(1)
        metrics, absent = tracer.layer_metrics()
        assert "protocol.round_stream" in tracer.missing
        assert "protocol.round_stream_us" in absent
        assert metrics["protocol.run_round_calls"] == {"value": 1, "unit": "count"}
        assert metrics["linalg.born_probabilities_calls"]["value"] == 1

    def test_paused_tracer_records_nothing(self, fake_package):
        package, _, _ = fake_package
        tracer = spans.Tracer("test")
        tracer.install("fakepkg")
        tracer.paused = True
        package.run_round(1)
        assert len(tracer.start) == 0


def test_parse_importtime_charges_each_layer_for_its_own_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       60000 |     numpy",
        "import time:      3000 |       63000 |   retroking.linalg",
        "import time:      1000 |        1000 |     retroking.reporting",
        "import time:      5000 |        6000 |   retroking.mub",
        "import time:       400 |       69400 | retroking",
        "import time:      2000 |        2000 |   argparse",
        "import time:      4000 |        6000 | retroking.cli",
    ])
    assert parse_importtime(text) == {
        "linalg": 0.063, "reporting": 0.001, "mub": 0.005, "cli": 0.006}


def test_benchmark_json_lists_every_metric_the_runs_print():
    import json
    from pathlib import Path

    from perfbench import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    printed = run.end_to_end([1.0], [1.0], 1, 1.0, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    layer = {name for name, *_ in spans.LAYER_METRICS}
    layer |= {f"{name}.import_s" for name in run.LAYERS}
    layer |= {"protocol.held_bytes_per_round", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
