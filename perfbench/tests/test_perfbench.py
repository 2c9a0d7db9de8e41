"""Tests of the benchmark itself: span arithmetic, the percentile rule,
and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.spans import (  # noqa: E402
    Span,
    SpanRecorder,
    check_self_time_identity,
    chrome_trace,
    covered,
    layer_table,
    min_samples_for,
    percentile,
    self_times,
)

WORKLOADS = ("splash-rr", "commercial-guarded", "serve-mix")


def span(sid, parent, start, end, name="s"):
    record = Span((0, sid), name, (0, 1),
                  None if parent is None else (0, parent), start)
    record.end = end
    return record


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7
        assert covered([], 0, 10) == 0
        assert covered([(-5, 1), (9, 20)], 0, 10) == 2

    def test_self_time_subtracts_direct_children_only(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                 span(2, 1, 2.0, 3.0), span(3, 0, 5.0, 6.5)]
        own = self_times(spans)
        assert own[(0, 0)] == pytest.approx(10.0 - 3.0 - 1.5)
        assert own[(0, 1)] == pytest.approx(3.0 - 1.0)
        assert own[(0, 2)] == pytest.approx(1.0)
        assert own[(0, 3)] == pytest.approx(1.5)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_identity_holds_for_nested_recorder_spans(self):
        recorder = SpanRecorder(True, tid=3)
        for _ in range(3):
            with recorder.span("op", recorder.new_op()):
                with recorder.span("a"):
                    with recorder.span("b"):
                        pass
                with recorder.span("c"):
                    pass
        assert check_self_time_identity(recorder.spans) == []
        ops = {s.op for s in recorder.spans}
        assert ops == {(3, 1), (3, 2), (3, 3)}
        table = layer_table(recorder.spans)
        assert table["a"]["calls"] == 3

    def test_identity_flags_a_child_outside_its_parent(self):
        spans = [span(0, None, 0.0, 1.0), span(1, 0, 0.5, 2.0)]
        assert len(check_self_time_identity(spans)) == 1

    def test_disabled_recorder_keeps_nothing(self):
        recorder = SpanRecorder(False)
        with recorder.span("op", recorder.new_op()) as record:
            assert record is None
        assert recorder.spans == []

    def test_chrome_trace_has_one_complete_event_per_span(self):
        recorder = SpanRecorder(True, tid=1)
        with recorder.span("op", recorder.new_op()):
            with recorder.span("child"):
                pass
        events = [e for e in chrome_trace([recorder], "t")["traceEvents"]
                  if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["op", "child"]
        assert events[1]["args"]["parent"] == events[0]["args"]["span"]
        assert {e["args"]["op"] for e in events} == {"1.1"}


class TestPercentileRule:
    def test_ten_samples_must_lie_beyond(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(20)), 0.5) == 9
        assert percentile(list(range(99)), 0.9) is None
        assert percentile(list(range(100)), 0.9) == 89
        assert percentile([], 0.5) is None

    def test_min_samples(self):
        assert min_samples_for(0.5) == 20
        assert min_samples_for(0.9) == 100


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_run(workload, trace, tmp_path):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace, "--smoke",
                     "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        stem = tmp_path / f"{workload}-seed3"
        trace_doc = json.loads(Path(f"{stem}.trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace_doc["traceEvents"])
        assert Path(f"{stem}.layers.txt").read_text().startswith("span")


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "splash-rr", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
