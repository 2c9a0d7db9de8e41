"""Tests for repro.explore: frontier, plans, driver, bisection, report."""

import json

import pytest

from repro.core.arbiter import SchedulePlan
from repro.core.modes import ExecutionMode
from repro.explore import (
    EXPLORE_OUTCOMES,
    ExploreReport,
    Frontier,
    ScheduleResult,
    execute_explore_spec,
    pct_plan,
    pct_plans,
    racing_pairs,
    read_explore_report,
    run_exploration,
)
from repro.explore.frontier import branch_prefix
from repro.runner.specs import RunSpec

BUGGY = ("lost-update", "atomicity-violation", "order-violation")
ORDER_MODES = (ExecutionMode.ORDER_AND_SIZE, ExecutionMode.ORDER_ONLY)


class TestPlans:
    def test_pct_stream_is_deterministic(self):
        assert (pct_plans(3, 5, depth=20)
                == pct_plans(3, 5, depth=20))
        assert pct_plan(3, 0, 20) != pct_plan(4, 0, 20)
        assert pct_plan(3, 0, 20) != pct_plan(3, 1, 20)

    def test_change_points_fit_the_depth(self):
        plan = pct_plan(1, 0, depth=10, change_points=3)
        assert len(plan.change_points) == 3
        assert all(1 <= p < 10 for p in plan.change_points)
        assert plan.seed is not None


class TestFrontier:
    # Two procs racing on line 5: commits 1 (p0 write) and 2 (p1 read)
    ACCESSES = (
        (0, (), (5,)),          # p0 writes 5
        (0, (), (9,)),          # p0 writes 9 (no conflict)
        (1, (5,), (7,)),        # p1 reads 5 -> races with commit 0
    )

    def test_racing_pairs_finds_the_conflict(self):
        pairs = racing_pairs(self.ACCESSES)
        assert [(p.first_index, p.second_index, p.kind)
                for p in pairs] == [(0, 2, "w-w") if False else
                                    (0, 2, "w-r")]
        assert pairs[0].first_proc == 0
        assert pairs[0].second_proc == 1

    def test_same_processor_never_races(self):
        pairs = racing_pairs(((0, (), (5,)), (0, (5,), (5,))))
        assert pairs == []

    def test_branch_prefix_reverses_the_pair(self):
        grant = [0, 0, 1]
        [pair] = racing_pairs(self.ACCESSES)
        assert branch_prefix(grant, pair) == (1,)

    def test_offer_deduplicates(self):
        frontier = Frontier()
        plan = SchedulePlan(prefix=(1, 0))
        assert frontier.offer(plan)
        assert not frontier.offer(SchedulePlan(prefix=(1, 0)))
        assert len(frontier) == 1
        assert frontier.pop() == plan
        assert frontier.pop() is None
        # popped plans stay seen
        assert not frontier.offer(plan)

    def test_mark_seen_blocks_future_offers(self):
        frontier = Frontier()
        plan = SchedulePlan(seed=9)
        assert frontier.mark_seen(plan)
        assert not frontier.mark_seen(plan)
        assert not frontier.offer(plan)
        assert len(frontier) == 0

    def test_expand_queues_the_reversal(self):
        frontier = Frontier()
        added = frontier.expand([0, 0, 1], self.ACCESSES)
        assert added == 1
        assert frontier.pop() == SchedulePlan(prefix=(1,))


class TestReport:
    def test_schedule_result_rejects_unknown_outcomes(self):
        with pytest.raises(ValueError):
            ScheduleResult(plan={}, source="pct", outcome="exploded")

    def test_jsonl_round_trip(self, tmp_path):
        report = ExploreReport(app="zoo:lost-update", mode="order_only",
                               campaign_seed=3, budget=10)
        report.add(ScheduleResult(
            plan=SchedulePlan().as_dict(), source="baseline",
            outcome="pass", classification="invariant-held",
            spec_hash="abc", commits=15))
        report.add(ScheduleResult(
            plan=SchedulePlan(prefix=(1, 0)).as_dict(), source="dpor",
            outcome="failure", classification="invariant-violated",
            detail="lost update", spec_hash="def", commits=15))
        path = report.write_jsonl(tmp_path / "campaign.jsonl")
        back = read_explore_report(path)
        assert back.app == report.app
        assert back.count == 2
        assert [r.as_dict() for r in back.results] \
            == [r.as_dict() for r in report.results]
        assert back.outcome_counts() == report.outcome_counts()
        assert not back.clean
        # Every line is valid JSON with a known kind.
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["explore-schedule", "explore-schedule",
                         "explore-summary"]

    def test_truncated_report_is_rejected(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(json.dumps(
            {"kind": "explore-schedule", "plan": {}, "source": "pct",
             "outcome": "pass"}) + "\n")
        with pytest.raises(ValueError, match="summary"):
            read_explore_report(path)


class TestHunting:
    @pytest.mark.parametrize("mode", ORDER_MODES)
    @pytest.mark.parametrize("name", BUGGY)
    def test_explorer_cracks_every_specimen(self, name, mode):
        report = run_exploration(f"zoo:{name}", mode, budget=40,
                                 campaign_seed=5)
        assert report.failures, report.summary()
        bisection = report.bisection
        assert bisection and "error" not in bisection
        assert bisection["verified"], bisection
        assert 0 < bisection["prefix_length"] \
            <= bisection["full_length"]

    @pytest.mark.parametrize("name", BUGGY)
    def test_picolog_detects_on_its_token_schedule(self, name):
        report = run_exploration(f"zoo:{name}", ExecutionMode.PICOLOG,
                                 budget=10, campaign_seed=5)
        assert report.count == 1          # one schedule exists
        assert report.failures
        assert report.bisection["prefix_length"] == 0
        assert report.bisection["verified"]

    def test_minimal_prefix_is_minimal(self):
        report = run_exploration("zoo:atomicity-violation",
                                 ExecutionMode.ORDER_ONLY,
                                 budget=40, campaign_seed=5)
        prefix = tuple(report.bisection["plan"]["prefix"])
        assert len(prefix) == report.bisection["prefix_length"]

        def outcome_of(p):
            spec = RunSpec.explore("zoo:atomicity-violation",
                                   ExecutionMode.ORDER_ONLY, prefix=p)
            return execute_explore_spec(spec)["metrics"]["outcome"]

        assert outcome_of(prefix) == "failure"
        assert outcome_of(prefix[:-1]) == "pass"

    def test_minimal_recording_replays_in_the_debugger(self):
        from repro.debugger.controller import ReplayController
        from repro.explore.bisect import MinimalRepro

        report = run_exploration("zoo:lost-update",
                                 ExecutionMode.ORDER_ONLY,
                                 budget=40, campaign_seed=5)
        minimal = MinimalRepro(**{
            key: value for key, value in report.bisection.items()
            if key != "kind"})
        controller = ReplayController(minimal.recording(),
                                      verify=True)
        stop = controller.cont()
        assert stop.reason == "end"
        # The failing final state is reproduced bit-for-bit.
        check = __import__("repro.workloads.bugzoo",
                           fromlist=["zoo_specimen"])
        specimen = check.zoo_specimen("lost-update")
        memory = {addr: value for addr, value
                  in controller.memory_view().items()}
        assert not specimen.check(memory).ok

    def test_same_campaign_seed_same_campaign(self):
        kwargs = dict(budget=40, campaign_seed=9)
        first = run_exploration("zoo:order-violation",
                                ExecutionMode.ORDER_ONLY, **kwargs)
        second = run_exploration("zoo:order-violation",
                                 ExecutionMode.ORDER_ONLY, **kwargs)
        def stable(results):
            return [{key: value for key, value
                     in result.as_dict().items()
                     if key != "wall_time"}   # host timing, not state
                    for result in results]

        assert stable(first.results) == stable(second.results)
        assert first.bisection == second.bisection

    def test_clean_workload_zero_false_positives(self):
        report = run_exploration("zoo:clean-rmw",
                                 ExecutionMode.ORDER_ONLY,
                                 budget=200, campaign_seed=7,
                                 stop_on_first=False, bisect=False)
        assert report.count >= 200
        assert report.clean, report.summary()
        assert report.bisection is None

    def test_outcomes_vocabulary_is_closed(self):
        report = run_exploration("zoo:lost-update",
                                 ExecutionMode.ORDER_ONLY,
                                 budget=20, campaign_seed=5)
        assert all(r.outcome in EXPLORE_OUTCOMES
                   for r in report.results)

    def test_setup_error_is_an_error_not_a_stall(self, tmp_path):
        from repro.telemetry import EventTracer

        tracer = EventTracer()
        report = run_exploration("racey", ExecutionMode.ORDER_ONLY,
                                 budget=1, tracer=tracer)
        assert [(r.outcome, r.classification)
                for r in report.results] == \
            [("error", "job-ConfigurationError")]
        assert not report.clean
        assert "1 error" in report.summary()
        assert tracer.metrics.as_dict()["explore_errors"] == 1
        back = read_explore_report(report.write_jsonl(
            tmp_path / "camp.jsonl"))
        assert back.outcome_counts()["error"] == 1

    def test_telemetry_counters(self):
        from repro.telemetry import EventTracer

        tracer = EventTracer()
        report = run_exploration("zoo:atomicity-violation",
                                 ExecutionMode.ORDER_ONLY,
                                 budget=40, campaign_seed=5,
                                 tracer=tracer)
        counters = tracer.metrics.as_dict()
        assert counters["explore_schedules_run"] == report.count
        assert counters["explore_failures"] == len(report.failures)
        assert counters["explore_bisect_probes"] > 0


class TestRaceTargets:
    def test_exploration_targets_surface_the_race(self):
        from repro.analysis.races import exploration_targets
        from repro.core.modes import preferred_config
        from repro.machine.system import record_execution
        from repro.machine.timing import MachineConfig
        from repro.workloads.bugzoo import ZOO_TARGET, zoo_specimen

        # Under the racy prefix both updates commit interleaved, so
        # the contended word has two writers close together.
        recording = record_execution(
            zoo_specimen("lost-update").build(),
            machine_config=MachineConfig(),
            mode_config=preferred_config(ExecutionMode.ORDER_ONLY),
            schedule=SchedulePlan(
                prefix=(0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1)))
        targets = exploration_targets(recording)
        assert targets
        line_addresses = {target.address for target in targets}
        assert any(addr <= ZOO_TARGET < addr + 64
                   for addr in line_addresses)
        for target in targets:
            assert target.first_commit < target.second_commit
            assert target.prefix  # a runnable branch prescription
