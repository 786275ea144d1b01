"""Exact package calls and raised ``KeyError``\\ s per warm operation.

``sys.setprofile``/``threading.setprofile`` count every call into a
function defined under the ``repro`` package, on every thread, for one
warm call of each entry point; ``sys.settrace``/``threading.settrace``
count the ``KeyError``\\ s raised meanwhile, in any code.  Both hooks are
installed before a service starts its workers, so worker calls count
too.  Comprehension, generator-expression and lambda frames are left
out: Python 3.12 inlines comprehensions, so counting them would tie the
pins to the interpreter.  The config is pinned as in
``test_event_counts.py``, so every CI profile sees the same numbers.
Ops that run on the engine pool are left out, since its threads may
predate the hooks.  A change that moves a count updates its pin here and
says why in CHANGES.md.

The serve request is counted on each side: the caller's
``SatService.submit``, and one worker cycle from waiting in ``take`` to
waiting again (admission, the engine run, completion).
"""

from __future__ import annotations

import collections
import gc
import os
import sys
import threading
import time

import pytest

import repro.exec.config as config_mod
from repro.engine.batch import sat_batch
from repro.exec.config import ExecutionConfig, execution
from repro.sat.api import sat
from repro.serve import SatRequest, SatService

from ..helpers import make_image

PACKAGE = os.path.dirname(config_mod.__file__).rsplit(os.sep, 1)[0] + os.sep

CONFIG = ExecutionConfig(backend="gpusim", sanitize=False,
                         bounds_check=False, autotune=False)
PAIR = "8u32s"
SHAPE = (128, 128)

#: Package calls per warm op.  Before config resolution and request keys
#: were memoised and ``emit`` kept its instruments, these read 135, 241,
#: 44 and 187, and the ops raised 30, 20 and 22 KeyErrors (unset
#: variables looked up through ``os.environ``); now none raise one.
WARM_SAT_CALLS = 115
WARM_SAT_BATCH_CALLS = 216
WARM_SUBMIT_CALLS = 20
WARM_WORKER_CALLS = 137


class _Counts:
    """Package calls per thread and ``KeyError``\\ s raised, while on."""

    def __init__(self):
        self.on = False
        self.calls = collections.Counter()
        self.key_errors = 0

    def profile(self, frame, event, arg):
        if self.on and event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and not code.co_name.startswith("<")):
                self.calls[threading.get_ident()] += 1

    def trace(self, frame, event, arg):
        # A raise is the exception event of the frame that raised it: its
        # traceback has no deeper entry.
        if (self.on and event == "exception"
                and issubclass(arg[0], KeyError) and arg[2].tb_next is None):
            self.key_errors += 1
        return self.trace

    def start(self):
        self.calls.clear()
        self.key_errors = 0
        self.on = True

    def stop(self):
        self.on = False


@pytest.fixture
def counts():
    c = _Counts()
    old_trace = sys.gettrace()
    gc.collect()
    gc.disable()
    sys.setprofile(c.profile)
    threading.setprofile(c.profile)
    sys.settrace(c.trace)
    threading.settrace(c.trace)
    try:
        yield c
    finally:
        c.stop()
        sys.setprofile(None)
        threading.setprofile(None)
        sys.settrace(old_trace)
        threading.settrace(None)
        gc.enable()


def _warm(call, counts):
    """Package calls and KeyErrors of the third of three identical calls."""
    with execution(CONFIG):
        call()
        call()
        counts.start()
        call()
        counts.stop()
    return sum(counts.calls.values()), counts.key_errors


def test_warm_sat(counts):
    img = make_image(SHAPE, PAIR, seed=0)
    assert _warm(lambda: sat(img, pair=PAIR), counts) == (WARM_SAT_CALLS, 0)


def test_warm_sat_batch(counts):
    imgs = [make_image(SHAPE, PAIR, seed=i) for i in range(8)]
    got = _warm(lambda: sat_batch(imgs, pair=PAIR), counts)
    assert got == (WARM_SAT_BATCH_CALLS, 0)


def _wait_idle(svc: SatService) -> None:
    """Wait until the one worker waits in ``take`` for work."""
    deadline = time.monotonic() + 30
    while not svc.batcher._cond._waiters:
        assert time.monotonic() < deadline, "worker never went idle"
        time.sleep(0.001)


def test_warm_serve_request(counts):
    img = make_image(SHAPE, PAIR, seed=0)
    caller = threading.get_ident()
    with SatService(workers=1, config=CONFIG) as svc:
        for _ in range(2):
            svc.request(SatRequest(img, pair=PAIR), timeout=60)
        _wait_idle(svc)
        req = SatRequest(img, pair=PAIR)
        counts.start()
        fut = svc.submit(req)
        submit_calls = counts.calls[caller]
        fut.result(timeout=60)
        _wait_idle(svc)
        counts.stop()
    worker_calls = sum(n for t, n in counts.calls.items() if t != caller)
    assert (submit_calls, worker_calls, counts.key_errors) == (
        WARM_SUBMIT_CALLS, WARM_WORKER_CALLS, 0)
