"""Chrome-trace / JSONL exporters and the per-pass breakdown."""

from __future__ import annotations

import json

import pytest

from repro import sat, sat_batch
from repro.obs import (
    Tracer,
    pass_breakdown,
    span_to_dict,
    to_chrome_trace,
    to_jsonl,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.exporters import BREAKDOWN_COLUMNS, HOST_PID, MODELED_PID
from repro.sat.brlt_scanrow import sat_brlt_scanrow

from ..helpers import make_image


@pytest.fixture(scope="module")
def traced_sat():
    img = make_image((128, 128), "8u32s", seed=5)
    tr = Tracer()
    with tracing(tr):
        # The exporter layout assertions are about interpreted launch
        # spans: the driver interprets whatever plans the default engine
        # holds, and the pinned backend keeps a host profile out.
        run = sat_brlt_scanrow(img, pair="8u32s", backend="gpusim")
    return tr, run


class TestJsonl:
    def test_round_trips_as_json(self, traced_sat):
        tr, _ = traced_sat
        lines = to_jsonl(tr)
        assert len(lines) == len(tr.spans)
        for line in lines:
            rec = json.loads(line)
            assert {"id", "name", "category", "attrs"} <= set(rec)

    def test_events_tagged(self):
        tr = Tracer()
        with tr.span("s"):
            tr.event("hit", category="cache")
        recs = [json.loads(l) for l in to_jsonl(tr)]
        assert recs[-1]["event"] is True
        assert recs[-1]["name"] == "hit"

    def test_write_jsonl(self, traced_sat, tmp_path):
        tr, _ = traced_sat
        path = tmp_path / "log.jsonl"
        n = write_jsonl(path, tr)
        assert n == len(path.read_text().splitlines())

    def test_span_to_dict_coerces_tuples(self):
        tr = Tracer()
        with tr.span("s", grid=(1, 2, 3)) as sp:
            pass
        assert span_to_dict(sp)["attrs"]["grid"] == [1, 2, 3]


class TestChromeTrace:
    def test_valid_and_modeled_layout(self, traced_sat):
        tr, run = traced_sat
        doc = to_chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"]
              if e["ph"] == "X" and e["pid"] == MODELED_PID and e["tid"] == 0]
        # Launches laid back-to-back: durations sum to the run's total.
        assert [e["name"] for e in xs] == ["BRLT-ScanRow#1", "BRLT-ScanRow#2"]
        assert sum(e["dur"] for e in xs) == pytest.approx(run.time_us, abs=1e-5)
        assert xs[1]["ts"] == pytest.approx(xs[0]["dur"], abs=1e-5)

    def test_phases_inside_launch_bounds(self, traced_sat):
        tr, _ = traced_sat
        doc = to_chrome_trace(tr)
        launches = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == MODELED_PID and e["tid"] == 0]
        phases = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == MODELED_PID and e["tid"] == 1]
        assert phases, "kernel phases missing from the modeled track"
        for ph in phases:
            host = [l for l in launches
                    if l["ts"] - 1e-6 <= ph["ts"]
                    and ph["ts"] + ph["dur"] <= l["ts"] + l["dur"] + 1e-6]
            assert host, f"phase {ph['name']} outside every launch"

    def test_include_host_toggle(self, traced_sat):
        tr, _ = traced_sat
        with_host = to_chrome_trace(tr, include_host=True)
        without = to_chrome_trace(tr, include_host=False)
        assert any(e["pid"] == HOST_PID for e in with_host["traceEvents"])
        assert not any(e["pid"] == HOST_PID for e in without["traceEvents"])
        # The modeled track is independent of the host track.
        modeled = [e for e in with_host["traceEvents"] if e["pid"] == MODELED_PID]
        assert modeled == [e for e in without["traceEvents"]
                           if e["pid"] == MODELED_PID]

    def test_write_chrome_trace(self, traced_sat, tmp_path):
        tr, _ = traced_sat
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tr)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}
        assert any("needs" in p for p in validate_chrome_trace(bad))
        assert validate_chrome_trace({"traceEvents": []}) == []

    def test_replay_spans_on_modeled_track(self):
        # Pin sanitize off: the sanitized profile falls back to per-image
        # execution and would never emit replay spans.
        from repro.exec.config import ExecutionConfig, execution

        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(4)]
        tr = Tracer()
        with execution(ExecutionConfig(sanitize=False, bounds_check=False)), \
                tracing(tr):
            sat_batch(imgs, pair="8u32s", algorithm="brlt_scanrow",
                      backend="gpusim")
        doc = to_chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e["ph"] == "X" and e["pid"] == MODELED_PID}
        assert "replay" in cats


class TestPassBreakdown:
    def test_rows_sum_to_run_total(self, traced_sat):
        tr, run = traced_sat
        rows = pass_breakdown(tr)
        assert [r["kernel"] for r in rows] == ["BRLT-ScanRow#1", "BRLT-ScanRow#2"]
        assert sum(r["modeled_us"] for r in rows) == pytest.approx(
            run.time_us, abs=1e-6
        )
        for r in rows:
            assert r["algorithm"] == "brlt_scanrow"
            assert r["mode"] == "launch"
            assert set(BREAKDOWN_COLUMNS) <= set(r)

    def test_warm_rows_match_cold(self):
        """A warm batch's per-pass rows carry the cold launch's modeled
        figures."""
        from repro.engine import Engine
        from repro.exec.config import ExecutionConfig, execution

        imgs = [make_image((64, 64), "8u32s", seed=i) for i in range(4)]
        keys = ("kernel", "mode", "bound", *BREAKDOWN_COLUMNS, "modeled_us")

        def rows_of(tr):
            return [{k: r[k] for k in keys} for r in pass_breakdown(tr)]

        cold_tr, warm_tr = Tracer(), Tracer()
        with execution(ExecutionConfig(sanitize=False, bounds_check=False,
                                       backend="gpusim")):
            with tracing(cold_tr):
                sat_brlt_scanrow(imgs[0], pair="8u32s")
            eng = Engine()
            sat_batch(imgs, pair="8u32s", algorithm="brlt_scanrow",
                      engine=eng)
            with tracing(warm_tr):
                sat_batch(imgs, pair="8u32s", algorithm="brlt_scanrow",
                          engine=eng)
        warm = rows_of(warm_tr)
        assert [r["mode"] for r in warm] == ["replay", "replay"]
        cold = rows_of(cold_tr)
        assert [r["mode"] for r in cold] == ["launch", "launch"]
        assert [dict(r, mode="replay") for r in cold] == warm

    def test_components_match_kernel_timing(self, traced_sat):
        tr, run = traced_sat
        rows = pass_breakdown(tr)
        for row, stats in zip(rows, run.launches):
            t = stats.timing
            assert row["modeled_us"] == pytest.approx(t.total * 1e6, abs=1e-9)
            assert row["t_gmem_us"] == pytest.approx(t.t_gmem * 1e6, abs=1e-9)
            assert row["t_exec_us"] == pytest.approx(t.t_exec * 1e6, abs=1e-9)
            assert row["bound"] == t.bound

    def test_algorithm_filter(self):
        img = make_image((64, 64), "8u32s", seed=6)
        tr = Tracer()
        with tracing(tr):
            sat(img, pair="8u32s", algorithm="brlt_scanrow")
            sat(img, pair="8u32s", algorithm="scan_row_column")
        all_rows = pass_breakdown(tr)
        assert {r["algorithm"] for r in all_rows} == {
            "brlt_scanrow", "scan_row_column"
        }
        only = pass_breakdown(tr, algorithm="scan_row_column")
        assert [r["kernel"] for r in only] == ["ScanRow", "ScanColumn"]
