import numpy as np
import pytest

from perfbench import oracle
from repro.sat.box_filter import box_filter, rect_sums


@pytest.fixture
def images():
    rng = np.random.default_rng(3)
    return (rng.integers(0, 256, size=(37, 53), dtype=np.uint8),
            rng.random(size=(37, 53), dtype=np.float32))


def test_int_reference_wraps_at_int32():
    img = np.full((4096, 2), 255, dtype=np.uint8)
    ref = oracle.int_reference(img)
    exact = np.cumsum(np.cumsum(img.astype(np.int64), 0), 1)
    assert ref.dtype == np.int32
    assert np.array_equal(ref, exact.astype(np.int32))


@pytest.mark.parametrize("which", [0, 1])
def test_exact_check_rejects_one_element_corruption(images, which):
    img = images[which]
    ref = (oracle.int_reference(img) if which == 0
           else oracle.float64_reference(img).astype(np.float32))
    oracle.check_exact(ref.copy(), ref, "same")
    bad = ref.copy()
    bad[17, 29] += 1
    with pytest.raises(oracle.OracleError, match=r"1 element\(s\) differ.*\(17, 29\)"):
        oracle.check_exact(bad, ref, "corrupt")


def test_exact_check_tells_signed_zeros_apart():
    ref = np.zeros((2, 2), dtype=np.float32)
    out = ref.copy()
    out[1, 1] = -0.0
    with pytest.raises(oracle.OracleError):
        oracle.check_exact(out, ref, "signed zero")


def test_exact_check_rejects_wrong_dtype_and_shape(images):
    ref = oracle.int_reference(images[0])
    with pytest.raises(oracle.OracleError, match="dtype"):
        oracle.check_exact(ref.astype(np.int64), ref, "dtype")
    with pytest.raises(oracle.OracleError, match="shape"):
        oracle.check_exact(ref[:-1], ref, "shape")


def test_close_check_tolerance(images):
    ref64 = oracle.float64_reference(images[1])
    oracle.check_close(ref64.astype(np.float32), ref64, "float32 rounding")
    bad = ref64.astype(np.float32)
    bad[5, 5] *= 1.01
    with pytest.raises(oracle.OracleError, match="outside"):
        oracle.check_close(bad, ref64, "one element off by 1%")


@pytest.mark.parametrize("which", [0, 1])
def test_rect_and_box_references_match_the_package_bit_for_bit(images, which):
    img = images[which]
    table = (oracle.int_reference(img) if which == 0
             else oracle.float64_reference(img).astype(np.float32))
    rng = np.random.default_rng(5)
    ys = np.sort(rng.integers(0, img.shape[0], size=(64, 2)))
    xs = np.sort(rng.integers(0, img.shape[1], size=(64, 2)))
    rects = np.stack([ys[:, 0], xs[:, 0], ys[:, 1], xs[:, 1]], axis=1)
    expected = rect_sums(table, rects[:, 0], rects[:, 1], rects[:, 2],
                         rects[:, 3])
    oracle.check_exact(oracle.rect_sums_reference(table, rects), expected,
                       "rect sums")
    oracle.check_exact(oracle.box_filter_reference(table, 3),
                       box_filter(table, 3), "box filter")
