import importlib
import threading

import pytest

from perfbench.spans import Recorder, Span, has_descendant, self_times


def _tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    return [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "c", 6.0, 8.0),
        Span(4, -1, "other", 20.0, 21.5),
    ]


def test_self_time_subtracts_direct_children_only():
    st = self_times(_tree())
    assert st == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0, 4: 1.5})
    # Self times of a tree add up to its root's duration.
    assert st[0] + st[1] + st[2] + st[3] == pytest.approx(10.0)


def test_has_descendant_marks_every_ancestor():
    assert has_descendant(_tree(), ["c"]) == {0, 2}
    assert has_descendant(_tree(), ["missing"]) == set()


@pytest.fixture(scope="module")
def recorder():
    return Recorder()


def _bindings():
    # ``repro.sat`` the attribute is the sat() function, so modules are
    # looked up by name.
    backends = importlib.import_module("repro.exec.backends")
    config = importlib.import_module("repro.exec.config")
    api = importlib.import_module("repro.sat.api")
    executor = importlib.import_module("repro.shard.executor")
    from repro.serve.request import RectSumRequest

    return {
        "config.resolve_execution": config.resolve_execution,
        "api.resolve_execution": api.resolve_execution,
        "backends.launch_kernel": backends.launch_kernel,
        "backends.pad_matrix": backends.pad_matrix,
        "ShardConfig.from_env": executor.ShardConfig.__dict__["from_env"],
        "RectSumRequest.finish": RectSumRequest.__dict__["finish"],
    }


def test_wrappers_replace_every_binding_and_restore_the_originals(recorder):
    before = _bindings()
    recorder.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert recorder.leftover_wrappers()
    finally:
        recorder.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert recorder.leftover_wrappers() == []


def test_wrapped_calls_record_nested_spans_and_keep_results(recorder):
    import numpy as np
    from repro import sat
    from repro.shard.executor import ShardConfig

    img = np.arange(64 * 64, dtype=np.uint8).reshape(64, 64)
    expected = sat(img, pair="8u32s", backend="host").output
    recorder.spans.clear()
    recorder.op = 7
    recorder.install()
    try:
        out = sat(img, pair="8u32s", backend="host").output
        cfg = ShardConfig.from_env()
        worker = threading.Thread(target=ShardConfig.from_env)
        worker.start()
        worker.join(timeout=30)
    finally:
        recorder.uninstall()
    assert not worker.is_alive()
    assert np.array_equal(out, expected)
    assert isinstance(cfg, ShardConfig)
    names = [s.name for s in recorder.spans]
    assert "exec.resolve" in names and "sat.pad" in names
    by_id = {s.id: s for s in recorder.spans}
    for s in recorder.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    configs = [s for s in recorder.spans if s.name == "shard.config"]
    assert sorted(s.op for s in configs)[-1] == 7
    assert -1 in [s.op for s in configs]  # the other thread's call


def test_failed_call_is_recorded_as_an_error(recorder):
    from repro.serve.request import RectSumRequest
    import numpy as np

    req = RectSumRequest(np.zeros((4, 4), dtype=np.uint8), rects=[(0, 0, 9, 9)])
    recorder.spans.clear()
    recorder.install()
    try:
        with pytest.raises(ValueError):
            req.finish(np.zeros((4, 4), dtype=np.int32))
    finally:
        recorder.uninstall()
    (span,) = [s for s in recorder.spans if s.name == "serve.finish"]
    assert span.error and span.info is None
