"""Tracer resolution, span structure and the guarded no-op path."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs.trace as trace_mod
from repro import sat
from repro.obs import Span, Tracer, current_tracer, env_tracer, resolve_tracer, tracing
from repro.obs.trace import kernel_phase
from repro.sat.brlt_scanrow import sat_brlt_scanrow

from ..helpers import make_image


class TestResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert current_tracer() is None

    def test_context_wins(self):
        with tracing() as tr:
            assert current_tracer() is tr
        assert current_tracer() is None

    def test_nested_contexts_innermost_wins(self):
        with tracing() as outer:
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_disable_context_shadows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert current_tracer() is not None
        with tracing(enabled=False):
            assert current_tracer() is None

    def test_env_flag_routes_to_global_tracer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert current_tracer() is env_tracer()
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert current_tracer() is None

    def test_resolve_tracer_kwarg_semantics(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert resolve_tracer(None) is None
        assert resolve_tracer(False) is None
        assert resolve_tracer(True) is env_tracer()
        t = Tracer()
        assert resolve_tracer(t) is t
        with tracing() as tr:
            assert resolve_tracer(None) is tr
            assert resolve_tracer(True) is tr
            assert resolve_tracer(False) is None


class TestSpans:
    def test_nesting_and_parent_ids(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert tr.current_span is inner
            assert tr.current_span is outer
        assert inner.parent_id == outer.id
        assert outer.parent_id is None
        # Pre-order: parent appended before child.
        assert tr.spans == [outer, inner]
        assert outer.t1_ns >= inner.t1_ns >= inner.t0_ns >= outer.t0_ns

    def test_span_attrs_and_wall_us(self):
        tr = Tracer()
        with tr.span("s", category="test", answer=42) as sp:
            pass
        assert sp.attrs["answer"] == 42
        assert sp.wall_us >= 0.0
        assert sp.modeled_us is None

    def test_event_attaches_to_current_span(self):
        tr = Tracer()
        with tr.span("s") as sp:
            ev = tr.event("hit", category="cache", n=3)
        assert ev["span_id"] == sp.id
        assert tr.events == [ev]
        outside = tr.event("miss")
        assert outside["span_id"] is None

    def test_clear_keeps_id_monotonic(self):
        tr = Tracer()
        with tr.span("a") as a:
            pass
        tr.clear()
        assert tr.spans == [] and tr.events == []
        with tr.span("b") as b:
            pass
        assert b.id > a.id


class TestKernelPhase:
    def test_noop_without_tracer(self):
        ctx = None  # never touched on the no-op path
        with kernel_phase(None, ctx, "load"):
            pass

    def test_records_chain_clocks(self):
        class FakeCounters:
            chain_clocks = 7.0

        class FakeCtx:
            counters = FakeCounters()

        tr = Tracer()
        with kernel_phase(tr, FakeCtx(), "load"):
            FakeCtx.counters.chain_clocks = 19.0
        (sp,) = tr.spans
        assert sp.category == "kernel.phase"
        assert sp.attrs["chain0"] == 7.0
        assert sp.attrs["chain1"] == 19.0


class TestSatIntegration:
    def test_traced_run_emits_expected_categories(self):
        img = make_image((64, 64), "8u32s", seed=1)
        with tracing() as tr:
            # Interpreted-launch span layout: the driver interprets even
            # where a warm sat() would run the bucket's lowered program,
            # and the pinned backend keeps a host profile out.
            sat_brlt_scanrow(img, pair="8u32s", backend="gpusim")
        cats = {s.category for s in tr.spans}
        assert cats == {"sat", "launch", "kernel.phase"}
        launches = [s for s in tr.spans if s.category == "launch"]
        assert [s.name for s in launches] == ["BRLT-ScanRow#1", "BRLT-ScanRow#2"]
        from repro.exec.config import resolve_execution

        for s in launches:
            assert s.attrs["modeled_us"] > 0
            assert "counters" in s.attrs
            # The span reports whatever mode actually ran (profile-aware).
            assert s.attrs["sanitize"] is resolve_execution().sanitize

    def test_trace_kwarg_overrides_ambient(self):
        img = make_image((64, 64), "8u32s", seed=1)
        mine = Tracer()
        with tracing() as ambient:
            sat(img, pair="8u32s", algorithm="brlt_scanrow", trace=mine)
        assert len(mine.spans) > 0
        assert len(ambient.spans) == 0

    def test_trace_false_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        img = make_image((64, 64), "8u32s", seed=1)
        env_tracer().clear()
        sat(img, pair="8u32s", algorithm="brlt_scanrow", trace=False)
        assert len(env_tracer().spans) == 0

    def test_tracing_does_not_change_output(self):
        img = make_image((96, 96), "8u32s", seed=2)
        base = sat(img, pair="8u32s", algorithm="brlt_scanrow")
        with tracing():
            traced = sat(img, pair="8u32s", algorithm="brlt_scanrow")
        np.testing.assert_array_equal(base.output, traced.output)
