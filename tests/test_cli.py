"""The ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import EXPERIMENTS, main


def test_sat_command(capsys):
    # Algorithm pinned: with it unset, the ambient profile may hand the
    # choice to the planner (REPRO_EXEC_PROFILE=autotuned in CI).
    assert main(["sat", "--size", "128", "--pair", "8u32s",
                 "--algorithm", "brlt_scanrow"]) == 0
    out = capsys.readouterr().out
    assert "BRLT-ScanRow#1" in out
    assert "total" in out and "checksum" in out


def test_sat_command_auto_algorithm(capsys):
    assert main(["sat", "--size", "128", "--pair", "8u32s",
                 "--algorithm", "auto"]) == 0
    out = capsys.readouterr().out
    # The planner's pick leads the report in place of the literal "auto".
    assert out.splitlines()[0].split()[0] in (
        "brlt_scanrow", "scanrow_brlt", "scan_row_column")
    assert "checksum" in out


def test_sat_command_other_algorithm(capsys):
    assert main(["sat", "--size", "128", "--algorithm", "opencv"]) == 0
    assert "horisontal" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main(["compare", "--size", "256", "--pair", "32f32f"]) == 0
    out = capsys.readouterr().out
    assert "brlt_scanrow" in out and "opencv" in out
    # NPP must be absent: it has no 32f input path.
    assert "npp" not in out


def test_devices_command(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    # The full zoo, paper devices and the post-paper additions alike.
    for name in ("M40", "P100", "V100", "A100", "H100"):
        assert name in out


def test_devices_table1_flag(capsys):
    assert main(["devices", "--table1"]) == 0
    out = capsys.readouterr().out
    assert "P100" in out and "256" in out


def test_experiment_command_table(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "scanCol" in capsys.readouterr().out


def test_experiment_registry_complete():
    assert {"table1", "table2", "fig6", "fig7", "fig8", "headline",
            "microbench", "model-equations", "model-verification",
            "ablation-scan", "ablation-stride"} <= set(EXPERIMENTS)


def test_sat_host_backend(capsys):
    assert main(["sat", "--size", "64", "--backend", "host"]) == 0
    out = capsys.readouterr().out
    assert "no modeled time on the 'host' backend" in out
    assert "checksum" in out


def test_sat_backend_agrees_across_backends(capsys):
    main(["sat", "--size", "64", "--seed", "3"])
    gpu = capsys.readouterr().out.splitlines()[-1]
    main(["sat", "--size", "64", "--seed", "3", "--backend", "host"])
    host = capsys.readouterr().out.splitlines()[-1]
    assert gpu == host  # same checksum line


def test_sat_mode_flags(capsys):
    assert main(["sat", "--size", "64", "--sanitize",
                 "--bounds-check"]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "checksum" in out


def test_sat_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["sat", "--backend", "cuda"])


def test_batch_host_backend(capsys):
    assert main(["batch", "--n-images", "2", "--size", "64",
                 "--backend", "host"]) == 0
    out = capsys.readouterr().out
    assert "checksum" in out


def test_bench_alias(capsys):
    assert main(["bench", "--size", "256", "--pair", "32f32f"]) == 0
    assert "brlt_scanrow" in capsys.readouterr().out


def test_compare_rejects_host_backend(capsys):
    assert main(["compare", "--size", "256", "--backend", "host"]) == 2
    assert "calibrated gpusim runner" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_seed_changes_checksum(capsys):
    main(["sat", "--size", "64", "--seed", "1"])
    a = capsys.readouterr().out
    main(["sat", "--size", "64", "--seed", "2"])
    b = capsys.readouterr().out
    assert a.splitlines()[-1] != b.splitlines()[-1]


def test_trace_command_chrome(tmp_path, capsys):
    out = tmp_path / "trace.json"
    # Launch-span layout is simulator specific: pin the backend so an
    # ambient host backend cannot drop the launch spans.
    assert main(["trace", "--size", "128", "--pair", "8u32s",
                 "--algorithm", "brlt_scanrow", "--backend", "gpusim",
                 "--out", str(out)]) == 0
    import json

    from repro.obs import validate_chrome_trace

    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert any(e.get("cat") == "launch" for e in doc["traceEvents"])
    assert "spans" in capsys.readouterr().out


def test_trace_command_jsonl(tmp_path, capsys):
    import json

    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--size", "64", "--algorithm", "scan_row_column",
                 "--backend", "gpusim", "--out", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert any(r["category"] == "kernel.phase" for r in recs)


def test_profile_command_table(capsys):
    assert main(["profile", "--size", "64", "--pair", "8u32s",
                 "--algorithm", "brlt_scanrow", "--backend", "gpusim"]) == 0
    out = capsys.readouterr().out
    assert "BRLT-ScanRow#1" in out and "BRLT-ScanRow#2" in out
    assert "brlt_scanrow" in out


def test_profile_command_all_algorithms_with_out(tmp_path, capsys):
    import json

    out = tmp_path / "profile.json"
    assert main(["profile", "--size", "64", "--backend", "gpusim",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for algo in ("scan_row_column", "brlt_scanrow", "scanrow_brlt"):
        assert algo in text
    doc = json.loads(out.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert "launch" in cats and "kernel.phase" in cats


def test_serve_command(capsys):
    import json

    assert main(["serve", "--requests", "8", "--size", "64",
                 "--workers", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["health"]["status"] == "ok"
    assert doc["stats"]["responses"] == 8
    assert doc["stats"]["errors"] == 0


def test_serve_command_http(capsys):
    assert main(["serve", "--requests", "4", "--size", "64",
                 "--workers", "2", "--http"]) == 0
    out = capsys.readouterr().out
    assert "http://127.0.0.1:" in out


def test_loadgen_closed(capsys):
    import json

    assert main(["loadgen", "--mode", "closed", "--clients", "4",
                 "--requests", "16", "--size", "64", "--workers", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "closed"
    assert doc["n_requests"] == 16 and doc["n_errors"] == 0
    assert "p95" in doc["latency_ms"]


def test_loadgen_open(capsys):
    import json

    assert main(["loadgen", "--mode", "open", "--rate", "400",
                 "--requests", "12", "--size", "64", "--workers", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "open"
    assert doc["offered_rps"] == 400.0 and doc["n_errors"] == 0


def test_shard_command_verifies(capsys):
    assert main(["shard", "--size", "256", "--tile", "64", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "sharded 4x4 over 2xP100" in out
    assert "matches host reference   yes" in out


def test_shard_command_device_list(capsys):
    assert main(["shard", "--size", "192", "--tile", "64",
                 "--devices", "P100,V100", "--placement", "blockrow"]) == 0
    out = capsys.readouterr().out
    assert "over P100,V100" in out
    assert "compute/carry overlap" in out
