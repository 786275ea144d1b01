"""The BENCH-file regression checker (repro.obs.regress)."""

from __future__ import annotations

import json

import pytest

from repro.obs.regress import (
    BATCH_METRICS,
    RegressionFinding,
    baseline_batch_metrics,
    check_bench_file,
    compare_metrics,
    fresh_batch_metrics,
    latest_entry,
    load_bench,
    main,
)


class TestCompare:
    def test_lower_is_better_polarity(self):
        (f,) = compare_metrics({"t": 1.0}, {"t": 1.5}, {"t": "lower"}, 10.0)
        assert f.regression and f.change_pct == pytest.approx(50.0)
        (f,) = compare_metrics({"t": 1.0}, {"t": 0.5}, {"t": "lower"}, 10.0)
        assert not f.regression

    def test_higher_is_better_polarity(self):
        (f,) = compare_metrics({"r": 0.9}, {"r": 0.5}, {"r": "higher"}, 10.0)
        assert f.regression
        (f,) = compare_metrics({"r": 0.5}, {"r": 0.9}, {"r": "higher"}, 10.0)
        assert not f.regression

    def test_within_threshold_is_ok(self):
        (f,) = compare_metrics({"t": 100.0}, {"t": 105.0}, {"t": "lower"}, 10.0)
        assert not f.regression

    def test_missing_or_zero_metrics_skipped(self):
        assert compare_metrics({}, {"t": 1.0}, {"t": "lower"}, 10.0) == []
        assert compare_metrics({"t": 0.0}, {"t": 1.0}, {"t": "lower"}, 10.0) == []

    def test_wall_metrics_flagged_noisy(self):
        (f,) = compare_metrics(
            {"fused_s": 1.0}, {"fused_s": 2.0}, {"fused_s": "lower"}, 10.0
        )
        assert f.noisy and "noisy" in f.describe()

    def test_describe_mentions_direction(self):
        f = RegressionFinding("b.json", "t", 1.0, 2.0, 100.0, True)
        assert "REGRESSION" in f.describe()


class TestBenchFiles:
    def test_latest_entry_requires_keys(self):
        entries = [{"a": 1}, {"a": 2, "b": 3}, {"a": 4}]
        assert latest_entry(entries, require=("a", "b"))["a"] == 2
        assert latest_entry(entries)["a"] == 4
        assert latest_entry(entries, require=("zzz",)) is None

    def test_load_bench_rejects_non_list(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_bench(p)

    def test_baseline_batch_metrics(self):
        entry = {"modeled_sequential_s": 0.4, "n_images": 8,
                 "plan_hit_rate": 0.875}
        base = baseline_batch_metrics(entry)
        assert base["modeled_sequential_per_image_s"] == pytest.approx(0.05)
        # Ideal for n=8 is 7/8 = 0.875 → efficiency 1.0; the normalisation
        # makes baselines recorded at different batch depths comparable.
        assert base["plan_efficiency"] == pytest.approx(1.0)

    def test_fresh_batch_metrics_reproduce_modeled_time(self):
        # Record a tiny fresh batch, then re-measure from the entry alone:
        # modeled per-image time is deterministic, so it matches exactly.
        from repro.engine import Engine
        from repro.exec.config import ExecutionConfig, execution
        from repro.obs.regress import fresh_batch_metrics
        import numpy as np

        rng = np.random.default_rng(0)
        imgs = [rng.integers(0, 256, (64, 64)).astype(np.uint8)
                for _ in range(4)]
        # Same pinned mode as fresh_batch_metrics, so the comparison holds
        # under every ambient CI profile.
        with execution(ExecutionConfig(sanitize=False, bounds_check=False)):
            run = Engine().run_batch(imgs, pair="8u32s",
                                     algorithm="brlt_scanrow", device="P100")
        entry = {"size": [64, 64], "pair": "8u32s",
                 "algorithm": "brlt_scanrow", "device": "P100", "n_images": 4}
        fresh = fresh_batch_metrics(entry, n_images=4)
        assert fresh["modeled_sequential_per_image_s"] == pytest.approx(
            run.modeled_sequential_s / run.n_images, rel=1e-12
        )
        assert fresh["plan_efficiency"] == pytest.approx(
            run.plan_hit_rate / (3 / 4)
        )

    def test_fresh_simulator_metrics_time_the_simulator(self, monkeypatch):
        """fused_s is simulator wall time whatever the ambient backend:
        each timed round interprets both passes, where an ambient host
        backend would run NumPy and a warm bucket its lowered program."""
        from repro.exec import backends
        from repro.obs.regress import fresh_simulator_metrics

        launches = []
        real = backends.launch_kernel

        def counting(*args, **kwargs):
            launches.append(kwargs["name"])
            return real(*args, **kwargs)

        monkeypatch.setattr(backends, "launch_kernel", counting)
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "host")
        fresh = fresh_simulator_metrics({"size": [64, 64]})
        assert len(launches) == 2 * 3  # two passes per timed round
        assert fresh["fused_s"] > 0

    def test_check_bench_file_batch(self, tmp_path):
        entry = {"size": [64, 64], "pair": "8u32s",
                 "algorithm": "brlt_scanrow", "device": "P100",
                 "n_images": 4, "plan_hit_rate": 0.75}
        fresh = fresh_batch_metrics(entry, n_images=4)
        entry["modeled_sequential_s"] = (
            fresh["modeled_sequential_per_image_s"] * 4
        )
        p = tmp_path / "BENCH_batch.json"
        p.write_text(json.dumps([entry]))
        findings = check_bench_file(p, n_images=4)
        by_metric = {f.metric: f for f in findings}
        assert not by_metric["modeled_sequential_per_image_s"].regression
        assert not by_metric["plan_efficiency"].regression

    def test_check_bench_file_no_usable_entry(self, tmp_path):
        p = tmp_path / "BENCH_batch.json"
        p.write_text(json.dumps([{"test": "other"}]))
        assert check_bench_file(p) == []


class TestMain:
    def test_no_bench_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0
        assert "nothing to check" in capsys.readouterr().err

    def test_warn_only_by_default(self, tmp_path, capsys):
        entry = {"size": [64, 64], "pair": "8u32s",
                 "algorithm": "brlt_scanrow", "device": "P100",
                 "n_images": 4, "plan_hit_rate": 0.75,
                 # Absurd baseline: fresh measurement must "regress".
                 "modeled_sequential_s": 1e-12}
        p = tmp_path / "BENCH_batch.json"
        p.write_text(json.dumps([entry]))
        assert main(["--bench", str(p), "--n-images", "4"]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_strict_fails_on_regression(self, tmp_path):
        entry = {"size": [64, 64], "pair": "8u32s",
                 "algorithm": "brlt_scanrow", "device": "P100",
                 "n_images": 4, "plan_hit_rate": 0.75,
                 "modeled_sequential_s": 1e-12}
        p = tmp_path / "BENCH_batch.json"
        p.write_text(json.dumps([entry]))
        assert main(["--bench", str(p), "--n-images", "4", "--strict"]) == 1

    def test_strict_passes_on_match(self, tmp_path):
        entry = {"size": [64, 64], "pair": "8u32s",
                 "algorithm": "brlt_scanrow", "device": "P100",
                 "n_images": 4, "plan_hit_rate": 0.75}
        fresh = fresh_batch_metrics(entry, n_images=4)
        entry["modeled_sequential_s"] = (
            fresh["modeled_sequential_per_image_s"] * 4
        )
        p = tmp_path / "BENCH_batch.json"
        p.write_text(json.dumps([entry]))
        assert main(["--bench", str(p), "--n-images", "4", "--strict"]) == 0
