"""DynamicBatcher admission policy: keying, demand, deadline, size knee.

The batcher is driven with an injectable fake clock through its
non-blocking ``poll()`` and ``take(timeout=0)`` paths, so every property
here is fully deterministic — no sleeps, no races.  Hypothesis generates
arrival sequences (inter-arrival gaps and shape choices, or interleaved
submits and takes) and the tests assert the policy invariants:

* **work conservation** — at the default linger (0), whenever requests
  are queued, a take or poll admits a batch without the clock moving;
* **oldest head first** — each batch is led by the oldest eligible
  request across all keys;
* **one batch per key and ask** — a batch takes every request queued
  under its key when the worker asks, split only at the depth cap;
* **conservation / no starvation** — every submitted request ends up in
  exactly one admitted batch, FIFO within its group;
* **deadline bound** — a group is admitted once its *oldest* request has
  waited ``max_delay_s``, and never earlier (unless the size knee fires);
* **size knee** — a group is admitted the moment it reaches its depth
  cap (the stacked-bytes knee), and no batch ever exceeds the cap;
* **compatibility** — batches are homogeneous in algorithm, dtype pair,
  shape bucket, resolved execution config and algorithm options.

End-to-end bit-identity of coalesced execution lives in
``test_service.py`` (real worker pool, real engine).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.scheduler import BatchScheduler
from repro.exec.config import execution, resolve_execution
from repro.exec.registry import get_kernel_spec
from repro.serve import DynamicBatcher, SatRequest


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def _img(shape=(32, 32), dtype=np.uint8, seed=0):
    rng = np.random.default_rng(seed)
    if np.dtype(dtype) == np.uint8:
        return rng.integers(0, 255, size=shape, dtype=np.uint8)
    return rng.random(shape, dtype=np.float32)


RESOLVED = resolve_execution()

# Three raw shapes: the first two pad to the same bucket (coalesce), the
# third pads differently.
PAD = get_kernel_spec("brlt_scanrow").pad
SHAPES = [(64, 64), (60, 62), (96, 64)]
assert BatchScheduler.bucket_of(SHAPES[0], PAD) == \
    BatchScheduler.bucket_of(SHAPES[1], PAD)
assert BatchScheduler.bucket_of(SHAPES[2], PAD) != \
    BatchScheduler.bucket_of(SHAPES[0], PAD)
IMAGES = [_img(s, seed=i) for i, s in enumerate(SHAPES)]
#: Three keys: IMAGES[0] and IMAGES[1] share one, plus a float32 key.
KEY_IMAGES = IMAGES + [_img(dtype=np.float32)]
KEYS = [DynamicBatcher.compat_key_of(SatRequest(im), RESOLVED)
        for im in KEY_IMAGES]
assert len(set(KEYS)) == 3


def _batcher(clock, **kw):
    kw.setdefault("max_delay_s", 0.01)
    return DynamicBatcher(clock=clock, **kw)


class TestCompatKey:
    def test_same_bucket_same_key(self):
        k0 = DynamicBatcher.compat_key_of(SatRequest(IMAGES[0]), RESOLVED)
        k1 = DynamicBatcher.compat_key_of(SatRequest(IMAGES[1]), RESOLVED)
        k2 = DynamicBatcher.compat_key_of(SatRequest(IMAGES[2]), RESOLVED)
        assert k0 == k1      # (60, 62) pads to the (64, 64) bucket
        assert k0 != k2

    def test_dtype_pair_separates(self):
        ku = DynamicBatcher.compat_key_of(SatRequest(_img()), RESOLVED)
        kf = DynamicBatcher.compat_key_of(
            SatRequest(_img(dtype=np.float32)), RESOLVED)
        assert ku.pair != kf.pair and ku != kf

    def test_algorithm_and_opts_separate(self):
        base = DynamicBatcher.compat_key_of(SatRequest(_img()), RESOLVED)
        alg = DynamicBatcher.compat_key_of(
            SatRequest(_img(), algorithm="scanrow_brlt"), RESOLVED)
        opt = DynamicBatcher.compat_key_of(
            SatRequest(_img(), opts={"scan": "serial"}), RESOLVED)
        assert base != alg and base != opt and alg != opt

    def test_resolved_config_separates(self):
        """Two ambient contexts → two keys: a sanitized request must not
        ride a non-sanitized batch."""
        with execution(sanitize=True):
            ks = DynamicBatcher.compat_key_of(
                SatRequest(_img()), resolve_execution())
        with execution(sanitize=False):
            kn = DynamicBatcher.compat_key_of(
                SatRequest(_img()), resolve_execution())
        assert ks != kn
        assert dict(ks.exec_key)["sanitize"] is True

    def test_equivalent_spellings_coalesce(self):
        """Profile vs. explicit field: same resolved modes, same key."""
        with execution("sanitized"):
            ka = DynamicBatcher.compat_key_of(
                SatRequest(_img()), resolve_execution())
        with execution(sanitize=True):
            kb = DynamicBatcher.compat_key_of(
                SatRequest(_img()), resolve_execution())
        assert ka == kb

    def test_invalid_requests_raise_synchronously(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            DynamicBatcher.compat_key_of(
                SatRequest(_img(), algorithm="nope"), RESOLVED)
        with pytest.raises(ValueError, match="2-D"):
            DynamicBatcher.compat_key_of(
                SatRequest(np.zeros((2, 2, 2), np.uint8)), RESOLVED)
        with pytest.raises(ValueError, match="at least one row"):
            DynamicBatcher.compat_key_of(
                SatRequest(np.zeros((0, 4), np.uint8)), RESOLVED)
        with pytest.raises(ValueError, match="does not match pair"):
            DynamicBatcher.compat_key_of(
                SatRequest(_img(dtype=np.float32), pair="8u32s"), RESOLVED)

    def test_depth_cap_is_the_stacked_bytes_knee(self):
        key = DynamicBatcher.compat_key_of(SatRequest(IMAGES[0]), RESOLVED)
        per = BatchScheduler.stack_bytes(key.bucket, np.uint8, np.int32)
        assert DynamicBatcher.depth_cap_for(key, 10 * per) == 10
        assert DynamicBatcher.depth_cap_for(key, 10 * per, max_batch=4) == 4
        assert DynamicBatcher.depth_cap_for(key, 1) == 1  # never below 1
        # Default knee is the engine scheduler's chunk bound.
        assert DynamicBatcher().max_stack_bytes == \
            BatchScheduler().max_stack_bytes


class TestAdmissionDeterministic:
    def test_deadline_not_early(self):
        clock = FakeClock()
        b = _batcher(clock)
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        assert b.poll(clock.advance(0.009)) == []
        batches = b.poll(clock.advance(0.002))   # past the 10 ms deadline
        assert len(batches) == 1
        assert batches[0].reason == "deadline"

    def test_deadline_measured_from_oldest(self):
        """Late arrivals must not extend the oldest request's wait."""
        clock = FakeClock()
        b = _batcher(clock)
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        clock.advance(0.008)
        b.submit(SatRequest(IMAGES[1]), RESOLVED)   # same key, young
        batches = b.poll(clock.advance(0.003))      # oldest is 11 ms old
        assert len(batches) == 1 and len(batches[0]) == 2

    def test_size_knee_admits_immediately(self):
        clock = FakeClock()
        b = _batcher(clock, max_batch=3)
        for _ in range(3):
            b.submit(SatRequest(IMAGES[0]), RESOLVED)
        batches = b.poll(clock.t)                   # no time has passed
        assert len(batches) == 1
        assert batches[0].reason == "size" and len(batches[0]) == 3

    def test_incompatible_groups_admit_independently(self):
        clock = FakeClock()
        b = _batcher(clock)
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        b.submit(SatRequest(IMAGES[2]), RESOLVED)   # different bucket
        b.submit(SatRequest(_img(dtype=np.float32)), RESOLVED)
        batches = b.poll(clock.advance(0.02))
        assert len(batches) == 3
        assert len({bt.key for bt in batches}) == 3

    def test_flush_and_close(self):
        clock = FakeClock()
        b = _batcher(clock)
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        b.close()
        batches = b.poll(clock.t)
        assert len(batches) == 1 and batches[0].reason == "flush"
        assert b.take() is None                     # closed and drained
        with pytest.raises(RuntimeError, match="closed"):
            b.submit(SatRequest(IMAGES[0]), RESOLVED)

    def test_take_timeout(self):
        b = DynamicBatcher(max_delay_s=10.0)
        assert b.take(timeout=0.01) is None

    def test_queue_depth_tracks_pending(self):
        clock = FakeClock()
        b = _batcher(clock)
        assert b.queue_depth == 0
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        b.submit(SatRequest(IMAGES[2]), RESOLVED)
        assert b.queue_depth == 2
        b.poll(clock.advance(0.02))
        assert b.queue_depth == 0


class CountingClock(FakeClock):
    """FakeClock that counts reads — a busy spin shows up as call count."""

    def __init__(self, t: float = 0.0):
        super().__init__(t)
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.t


class OscillatingClock(CountingClock):
    """Adversarial non-monotonic clock: the first read (the submit's
    arrival stamp) and every even read return ``lo``; odd reads return
    ``hi``.  A ``take()`` that reads the clock twice per iteration then
    sees ``lo`` at promotion and ``hi`` at the wait computation — below
    and above the deadline respectively — forever."""

    def __init__(self, lo: float, hi: float):
        super().__init__(lo)
        self.lo, self.hi = lo, hi

    def __call__(self) -> float:
        self.calls += 1
        if self.calls == 1 or self.calls % 2 == 0:
            return self.lo
        return self.hi


class TestNonMonotonicClock:
    """Regression: deadline arithmetic under injected / regressing clocks.

    ``take()`` must sample the clock once per iteration: promotion and
    the wait computation have to agree on ``now``.  With two separate
    reads, a clock oscillating around a group's deadline makes promotion
    (seeing ``now < deadline``) decline the group while the wait
    computation (seeing ``now >= deadline``) clamps to a zero wait — an
    unbounded busy spin.  One sample makes every remaining deadline
    strictly future, so waits are strictly positive.
    """

    def test_oscillating_clock_admits_without_spinning(self):
        clock = OscillatingClock(lo=0.0, hi=1.0)
        b = _batcher(clock, max_delay_s=0.01)     # deadline = lo + 0.01
        b.submit(SatRequest(IMAGES[0]), RESOLVED)  # arrival stamped at lo
        calls_before = clock.calls
        batch = b.take(timeout=2.0)
        # Some iteration's single sample lands on hi (past the deadline)
        # and must admit.  A two-sample implementation sees lo at
        # promotion and hi at the wait computation every iteration: a
        # zero wait, a busy spin through the whole timeout, and
        # thousands of clock reads.
        assert batch is not None and batch.reason == "deadline"
        assert clock.calls - calls_before <= 8
        b.close()

    def test_backwards_step_yields_positive_wait_not_spin(self):
        """Clock regresses below the arrival time: the group is simply
        not due yet; take() must time out quietly, not spin."""
        clock = CountingClock(10.0)
        b = _batcher(clock, max_delay_s=0.05)
        b.submit(SatRequest(IMAGES[0]), RESOLVED)  # arrival at t=10
        clock.t = 3.0                              # big backwards step
        calls_before = clock.calls
        assert b.take(timeout=0.02) is None
        assert clock.calls - calls_before <= 6
        # Once the clock recovers past the deadline, admission works.
        clock.t = 10.1
        batch = b.take(timeout=1.0)
        assert batch is not None and len(batch) == 1
        b.close()

    @given(steps=st.lists(st.integers(min_value=-2, max_value=2),
                          min_size=1, max_size=12))
    @settings(deadline=None)
    def test_backwards_stepping_clock_conserves_and_never_spins(self, steps):
        """Hypothesis: arbitrary forward/backward clock walks.  Every
        ``take`` stays within a bounded number of clock reads (no spin),
        never raises, and every submitted request is served exactly
        once.  Steps are coarse (multiples of 0.02 against a 0.01
        deadline) so a frozen fake clock never sits epsilon-close to a
        deadline, where bounded re-checking would be legitimate."""
        clock = CountingClock(1.0)
        b = _batcher(clock, max_delay_s=0.01)
        submitted, served = [], []
        for i, k in enumerate(steps):
            clock.t = max(0.0, clock.t + k * 0.02)  # may regress
            req = SatRequest(IMAGES[i % len(IMAGES)])
            b.submit(req, RESOLVED)
            submitted.append(req.request_id)
            calls_before = clock.calls
            batch = b.take(timeout=0.001)
            assert clock.calls - calls_before <= 4
            if batch is not None:
                served.extend(p.request.request_id for p in batch.entries)
        b.close()
        while True:
            batch = b.take(timeout=0.001)
            if batch is None:
                break
            served.extend(p.request.request_id for p in batch.entries)
        assert sorted(served) == sorted(submitted)


class TestDemandDrivenAdmission:
    """At the default linger (0) a batch forms whenever a worker asks.

    The fake clock never moves, so nothing here can become eligible by
    waiting: every admission is the worker's ask alone.
    """

    CAP = 3
    #: Submits (an index into KEY_IMAGES) interleaved with worker asks.
    OPS = st.lists(st.one_of(st.integers(0, len(KEY_IMAGES) - 1),
                             st.sampled_from(["take", "poll"])),
                   max_size=40)

    def test_idle_worker_takes_a_lone_request_at_once(self):
        b = DynamicBatcher(clock=FakeClock())
        b.submit(SatRequest(IMAGES[0]), RESOLVED)
        batch = b.take(timeout=0.05)
        assert batch is not None and len(batch) == 1
        # Its zero linger has elapsed: a demand admission reports deadline.
        assert batch.reason == "deadline"

    def _drive(self, ops, check=None):
        """Apply ``ops`` to a default-linger batcher on a frozen clock.

        Asserts work conservation at every ask: with requests queued,
        ``take(timeout=0)`` returns a batch and ``poll()`` drains the
        queue; with none, both come back empty.  ``check(batch,
        waiting)`` sees each batch with the ``(request_id, key index)``
        pairs queued just before it left, in submit order.
        """
        b = DynamicBatcher(clock=FakeClock(), max_batch=self.CAP)
        waiting, submitted, served = [], [], []
        for op in ops:
            if isinstance(op, int):
                req = SatRequest(KEY_IMAGES[op])
                b.submit(req, RESOLVED)
                waiting.append((req.request_id, op))
                submitted.append(req.request_id)
                continue
            batches = b.poll() if op == "poll" else [b.take(timeout=0)]
            if not waiting:
                assert batches in ([], [None])
                continue
            assert batches and None not in batches
            for bt in batches:
                if check is not None:
                    check(bt, waiting)
                ids = [p.request.request_id for p in bt.entries]
                waiting = [w for w in waiting if w[0] not in ids]
                served.extend(ids)
            if op == "poll":
                assert not waiting
            assert b.queue_depth == len(waiting)
        b.close()
        served.extend(p.request.request_id for bt in b.poll()
                      for p in bt.entries)
        assert sorted(served) == sorted(submitted)
        assert len(set(served)) == len(served)

    @given(ops=OPS)
    @settings(deadline=None)
    def test_work_conserving(self, ops):
        self._drive(ops)

    @given(ops=OPS)
    @example(ops=[0, 2, 2, 2, "take"])   # a full younger key must not jump
    @settings(deadline=None)
    def test_oldest_head_first_across_keys(self, ops):
        def check(bt, waiting):
            assert bt.entries[0].request.request_id == waiting[0][0]

        self._drive(ops, check)

    @given(ops=OPS)
    @example(ops=[0, 2, "take", 2, "take"])  # key 2 queued across an ask
    @settings(deadline=None)
    def test_key_leaves_as_one_batch_split_at_cap(self, ops):
        """Everything queued under the batch's key when the worker asks
        leaves together, FIFO, cut only at the depth cap."""
        def check(bt, waiting):
            same_key = [rid for rid, k in waiting if KEYS[k] == bt.key]
            assert [p.request.request_id for p in bt.entries] == \
                same_key[:self.CAP]
            assert bt.reason == ("size" if len(same_key) >= self.CAP
                                 else "deadline")

        self._drive(ops, check)

    def test_racing_submitters_and_takers_lose_nothing(self):
        """More threads than cores, a tiny switch interval: 4 submitters
        and 4 takers on the real clock.  Every request leaves exactly
        once, in submit order within its batch, never above the cap."""
        b = DynamicBatcher(max_batch=self.CAP)
        per_submitter = 150
        submitted = [[] for _ in range(4)]
        batches = []
        lock = threading.Lock()

        def submitter(i):
            for j in range(per_submitter):
                req = SatRequest(KEY_IMAGES[(i + j) % len(KEY_IMAGES)])
                b.submit(req, RESOLVED)
                submitted[i].append(req.request_id)

        def taker():
            while (batch := b.take()) is not None:
                with lock:
                    batches.append(batch)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            takers = [threading.Thread(target=taker) for _ in range(4)]
            subs = [threading.Thread(target=submitter, args=(i,))
                    for i in range(4)]
            for t in takers + subs:
                t.start()
            for t in subs:
                t.join(timeout=60)
            b.close()
            for t in takers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in takers + subs)

        served = [p.request.request_id for bt in batches for p in bt.entries]
        assert sorted(served) == sorted(sum(submitted, []))
        assert b.queue_depth == 0
        origin = {rid: i for i, ids in enumerate(submitted) for rid in ids}
        for bt in batches:
            assert 1 <= len(bt) <= self.CAP
            ids = [p.request.request_id for p in bt.entries]
            for i in range(4):
                mine = [rid for rid in ids if origin[rid] == i]
                assert mine == sorted(mine)


@st.composite
def arrival_sequences(draw):
    """(gap_ms, shape_index) arrival streams, gaps 0–6 ms."""
    n = draw(st.integers(min_value=1, max_value=24))
    gaps = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    shapes = draw(st.lists(st.integers(0, len(SHAPES) - 1),
                           min_size=n, max_size=n))
    return list(zip(gaps, shapes))


class TestAdmissionProperties:
    @given(seq=arrival_sequences())
    @settings(deadline=None)
    def test_policy_invariants(self, seq):
        clock = FakeClock()
        b = _batcher(clock, max_delay_s=0.01, max_batch=4)
        submitted = []
        batches = []
        for gap_ms, si in seq:
            clock.advance(gap_ms / 1e3)
            req = SatRequest(IMAGES[si])
            b.submit(req, RESOLVED)
            submitted.append(req.request_id)
            # Sweep after every arrival, like a running worker would.
            batches.extend(b.poll(clock.t))
        b.close()
        batches.extend(b.poll(clock.t))

        # Conservation: every request in exactly one batch, none invented.
        served = [p.request.request_id for bt in batches for p in bt.entries]
        assert sorted(served) == sorted(submitted)
        assert len(set(served)) == len(served)

        for bt in batches:
            ids = [p.request.request_id for p in bt.entries]
            # FIFO within the group.
            assert ids == sorted(ids)
            # Homogeneous: one compatibility key per batch.
            for p in bt.entries:
                assert DynamicBatcher.compat_key_of(
                    p.request, RESOLVED) == bt.key
            # Size knee: never above the cap; "size" exactly at the cap.
            cap = DynamicBatcher.depth_cap_for(
                bt.key, b.max_stack_bytes, b.max_batch)
            assert len(bt) <= cap
            assert (bt.reason == "size") == (len(bt) == cap) or \
                bt.reason == "flush"
            # Deadline bound: admission happens within max_delay of the
            # oldest arrival plus one polling gap (6 ms here, since the
            # batcher only acts at submits and sweeps).  A "deadline"
            # batch is additionally never admitted before its deadline.
            wait = bt.admitted - bt.entries[0].arrival
            assert wait <= b.max_delay_s + 6e-3 + 1e-9
            if bt.reason == "deadline":
                assert wait >= b.max_delay_s - 1e-9

    @given(seq=arrival_sequences())
    @settings(deadline=None)
    def test_no_request_left_waiting_past_deadline(self, seq):
        """After any sweep at time t, no pending request is older than
        max_delay — the no-starvation guarantee, pointwise."""
        clock = FakeClock()
        b = _batcher(clock, max_delay_s=0.005)
        for gap_ms, si in seq:
            clock.advance(gap_ms / 1e3)
            b.submit(SatRequest(IMAGES[si]), RESOLVED)
            b.poll(clock.t)
            # Anything still pending must be young; a second immediate
            # sweep finds nothing new to admit.
            assert b.poll(clock.t) == []
        b.flush()
        b.poll(clock.t)
        assert b.queue_depth == 0
        b.close()
