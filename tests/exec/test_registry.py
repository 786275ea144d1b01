"""Kernel-spec and backend registries: one declaration per algorithm,
interchangeable executors behind it."""

import pytest

from repro.dtypes import parse_pair
from repro.exec import registry
from repro.exec.registry import (
    BatchPass,
    KernelSpec,
    backend_names,
    get_backend,
    get_kernel_spec,
    has_kernel_spec,
    kernel_spec_names,
    register_backend,
)
from repro.gpusim.device import get_device

PAPER_ALGS = ["brlt_scanrow", "scan_row_column", "scanrow_brlt"]


class TestKernelSpecs:
    def test_paper_algorithms_registered(self):
        assert kernel_spec_names() == PAPER_ALGS
        for name in PAPER_ALGS:
            assert has_kernel_spec(name)
        assert not has_kernel_spec("opencv")

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError, match="no kernel spec"):
            get_kernel_spec("magic")

    @pytest.mark.parametrize("name", PAPER_ALGS)
    def test_spec_shape(self, name):
        spec = get_kernel_spec(name)
        assert isinstance(spec, KernelSpec)
        assert spec.algorithm == name
        assert spec.pad == (32, 32)
        assert len(spec.passes) == 2
        for p in spec.passes:
            assert p.grid_axis in ("x", "y")
            assert callable(p.geometry) and callable(p.host)
            assert p.mlp == 32

    def test_tile_pass_geometry(self):
        """The BRLT-ScanRow launch rule of Sec. IV-B, from the one spec."""
        spec = get_kernel_spec("brlt_scanrow")
        acc = parse_pair("32f32f").output
        grid, block = spec.passes[0].geometry(128, 128, acc, get_device("P100"))
        assert grid == (1, 4, 1)       # one block per 32-row band
        assert block == (128, 1, 1)    # 4 warps: W/32 strips cap the width
        # double accumulators halve the launch width (512-thread rule)
        acc64 = parse_pair("64f64f").output
        _, block64 = spec.passes[0].geometry(2048, 2048, acc64,
                                             get_device("P100"))
        assert block64 == (512, 1, 1)

    def test_scan_row_column_pass_geometries_differ(self):
        spec = get_kernel_spec("scan_row_column")
        acc = parse_pair("8u32s").output
        dev = get_device("P100")
        g1, b1 = spec.passes[0].geometry(64, 64, acc, dev)
        g2, b2 = spec.passes[1].geometry(64, 64, acc, dev)
        assert g1 == (1, 2, 1) and b1 == (1024, 1, 1)   # warp per row
        assert g2 == (2, 1, 1) and b2 == (32, 2, 1)     # 32-col stripes

    def test_batch_spec_binds_opts(self):
        spec = get_kernel_spec("brlt_scanrow")
        bs = spec.batch_spec(parse_pair("8u32s"), get_device("P100"),
                             brlt_stride=17)
        assert bs.pad == spec.pad
        assert [p.name for p in bs.passes] == [p.name for p in spec.passes]
        for p in bs.passes:
            assert isinstance(p, BatchPass)
            assert p.extra_args == (17, True)

    def test_geometry_declared_exactly_once(self):
        """No module besides the spec's own may declare launch geometry:
        the compat ``*_pass`` helpers and the engine both read the spec."""
        import repro.engine.batch as eng
        for name in PAPER_ALGS:
            assert eng.BATCH_SPECS[name].__self__ is get_kernel_spec(name)


class TestBackends:
    def test_builtin_backends(self):
        assert {"gpusim", "host"} <= set(backend_names())
        assert get_backend("gpusim").name == "gpusim"
        assert get_backend("host").name == "host"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_register_custom_backend(self):
        class Dummy:
            name = "dummy"

        register_backend("dummy-test", Dummy())
        try:
            assert get_backend("dummy-test").name == "dummy"
            assert "dummy-test" in backend_names()
        finally:
            registry._BACKENDS.pop("dummy-test", None)
