import pytest

from perfbench.report import END_TO_END, end_to_end
from perfbench.workloads import Measurement, Op


def test_end_to_end_medians_interpolate_and_failures_miss_the_slo():
    # Ten completed ops of 1..10 ms (latency 10..100 ms) and one that failed.
    meas = Measurement(attempted=11, busy_s=2.0)
    for i in range(1, 11):
        meas.ops.append(Op(call_s=i * 1e-3, latency_s=i * 1e-2,
                           pixels=10**6, instr=2e6, sol_s=0.02))
    v = end_to_end(meas, limit_s=0.055, setup_s=1.5, peak_rss_mb=50.0)
    assert set(v) == set(END_TO_END)
    # The median of an even count lies midway between the middle two.
    assert v["call_p50_us"] == pytest.approx(5500.0)
    assert v["latency_p50_ms"] == pytest.approx(55.0)
    assert v["sol_ratio"] == pytest.approx(0.055 / 0.02)
    assert v["slo_attainment"] == pytest.approx(5 / 11)
    assert v["mpix_per_s"] == pytest.approx(5.0)
    assert v["sim_minstr_per_s"] == pytest.approx(10.0)
    assert (v["setup_s"], v["peak_rss_mb"]) == (1.5, 50.0)


def test_end_to_end_refuses_a_run_with_no_completed_op():
    with pytest.raises(ValueError, match="no operation completed"):
        end_to_end(Measurement(attempted=3, busy_s=1.0), 0.1, 1.0, 50.0)
