"""The event table: one ``emit`` call, the sinks its row declares.

``tests/golden/obs_events.json`` records what :mod:`.event_scenario`
leaves in the metrics registry, the request timelines and the JSONL
trace.  It was generated before the event sites moved to one ``emit``
call, so an event that changes a name, a value, a label or a sink
breaks :func:`test_scenario_reproduces_the_golden`.  The table walk
checks the other direction: every row of :data:`EVENTS` reaches every
sink it declares in that scenario.  To regenerate the golden after an
intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_events.py

then review the diff of ``tests/golden/obs_events.json``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.obs import EVENTS, Tracer, emit, get_metrics, reset_metrics, tracing

from .event_scenario import canonical, dumps, run_scenario

ROOT = Path(__file__).parent.parent.parent
GOLDEN = ROOT / "tests" / "golden" / "obs_events.json"
DOCS = ROOT / "docs" / "observability.md"


@pytest.fixture(scope="module")
def scenario():
    with pytest.MonkeyPatch.context() as mp:
        return canonical(run_scenario(mp))


def test_scenario_reproduces_the_golden(scenario):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(dumps(scenario))
    want = json.loads(GOLDEN.read_text())
    assert scenario["registry"] == want["registry"]
    assert scenario["timelines"] == want["timelines"]
    assert scenario["trace"] == want["trace"]


def _series(key: str):
    """``("name", {"label", ...})`` of a formatted registry key."""
    name, _, labels = key.partition("{")
    return name, {kv.split("=")[0] for kv in labels.rstrip("}").split(",")
                  if kv}


@pytest.mark.parametrize("name", sorted(EVENTS))
def test_every_row_reaches_its_sinks(scenario, name):
    ev = EVENTS[name]
    if ev.kind is not None:
        labels = [lb for key in scenario["registry"]
                  for n, lb in [_series(key)] if n == name]
        assert labels, f"{name}: no registry series"
        assert all(lb == set(ev.labels) for lb in labels), labels
    if ev.timeline is not None:
        assert any(ev.timeline in ann
                   for ann in scenario["timelines"].values()), name
    spans = [r for r in scenario["trace"] if not r.get("event")]
    events = [r for r in scenario["trace"] if r.get("event")]
    if ev.span is not None:
        assert any(ev.span in r["attrs"] for r in spans), name
    if ev.instant is not None:
        hits = [r for r in events if r["category"] == ev.instant and (
            r["name"] == name if ev.suffix is None
            else r["name"].startswith(name + "."))]
        assert hits, f"{name}: no instant event"
        assert all(set(ev.labels) <= set(r) for r in hits)


def test_docs_table_lists_every_event():
    text = DOCS.read_text()
    section = text.split("\n## Events\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert sorted(documented) == sorted(EVENTS)


class TestEmit:
    @pytest.fixture(autouse=True)
    def _fresh_metrics(self):
        reset_metrics()
        yield
        reset_metrics()

    def test_unknown_event_raises(self):
        with pytest.raises(KeyError):
            emit("no.such.event")

    def test_missing_label_raises(self):
        with pytest.raises(KeyError):
            emit("engine.batches")

    def test_unlabelled_fields_reach_only_the_trace(self):
        with tracing() as tr:
            emit("compile.fallback", algorithm="a", reason="why")
        assert get_metrics().snapshot() == {
            "compile.fallback{algorithm=a}": 1.0}
        (ev,) = tr.events
        assert (ev["name"], ev["category"], ev["algorithm"], ev["reason"]) \
            == ("compile.fallback", "compile", "a", "why")

    def test_span_sink_sets_the_enclosing_span(self):
        tr = Tracer()
        with tracing(tr), tr.span("outer") as sp:
            emit("engine.plan_hits", 3)
        assert sp.attrs == {"plan_hits": 3}
        assert tr.events == []

    def test_suffix_names_the_instant_event(self):
        with tracing() as tr:
            emit("shard.device", device="P100:0", n_ops=2)
        (ev,) = tr.events
        assert ev["name"] == "shard.device.P100:0" and ev["n_ops"] == 2
        assert "device" not in ev

    def test_kinds_update_their_instrument(self):
        emit("serve.queue_depth", 4)
        emit("serve.queue_depth", 2)
        emit("serve.batch_size", 3)
        emit("shard.tiles", 16, algorithm="a")
        m = get_metrics()
        assert m.value("serve.queue_depth") == 2
        assert m.histogram("serve.batch_size").count == 1
        assert m.value("shard.tiles", algorithm="a") == 16

    def test_untraced_untimed_emit_touches_only_the_registry(self):
        with tracing(enabled=False):
            emit("engine.plan_hits", 2)
            emit("plan.hit", bucket=(8, 8), n_images=1, algorithm="a")
        assert get_metrics().snapshot() == {"engine.plan_hits": 2.0}
