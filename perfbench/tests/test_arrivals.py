import numpy as np
import pytest

from perfbench.arrivals import exact_mix, poisson_schedule, run_open_loop


def test_schedule_is_seeded_sorted_and_bounded():
    a = poisson_schedule(np.random.default_rng(9), 25.0, 40.0)
    b = poisson_schedule(np.random.default_rng(9), 25.0, 40.0)
    c = poisson_schedule(np.random.default_rng(10), 25.0, 40.0)
    assert a == b and a != c
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 0 < a[0] and a[-1] < 40.0
    assert len(a) == len(c) == 1000  # the count is fixed at rate * duration
    gaps = np.diff(a)
    # Exponential gaps: mean 1/rate and standard deviation equal to it.
    assert np.mean(gaps) == pytest.approx(0.04, rel=0.1)
    assert np.std(gaps) == pytest.approx(0.04, rel=0.15)


def test_exact_mix_has_exact_shares_in_seeded_order():
    a = exact_mix(np.random.default_rng(1), [0.4, 0.35, 0.25], 101)
    b = exact_mix(np.random.default_rng(2), [0.4, 0.35, 0.25], 101)
    assert [a.count(i) for i in range(3)] == [41, 35, 25]
    assert sorted(a) == sorted(b) and a != b


def test_schedule_rejects_nonsense():
    with pytest.raises(ValueError):
        poisson_schedule(np.random.default_rng(0), 0.0, 1.0)


def test_open_loop_times_lateness_from_the_schedule():
    now = [100.0]
    sent = []

    def clock():
        return now[0]

    def sleep(dt):
        now[0] += dt

    def send(i, due):
        sent.append((i, due, now[0]))
        if i == 0:
            now[0] += 0.5  # the first send stalls the generator

    lag = run_open_loop([0.1, 0.2, 1.0], send, clock=clock, sleep=sleep)
    assert [s[0] for s in sent] == [0, 1, 2]
    assert [s[1] for s in sent] == pytest.approx([100.1, 100.2, 101.0])
    # The stall makes the second send late by 0.4 s; the third is on time.
    assert lag == pytest.approx([0.0, 0.4, 0.0])
