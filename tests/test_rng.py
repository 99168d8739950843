import numpy as np
import pytest

from cgankd import rng

KEY = rng.derive_key("row-normals")


@pytest.mark.parametrize("width", [1, 2, 5, rng.ROW_LANES])
def test_row_normals_draw_each_row_from_its_own_lanes(width):
    counters = np.array([0, 1, 7, 2**40], dtype=np.uint64)
    lanes = (counters[:, None] * np.uint64(rng.ROW_LANES)
             + np.arange(width, dtype=np.uint64))
    got = rng.row_normals(KEY, counters, width)
    assert got.shape == (4, width)
    assert got.tobytes() == rng.normals(KEY, lanes).tobytes()


def test_row_normals_rows_share_no_draw():
    z = rng.row_normals(KEY, np.arange(2), rng.ROW_LANES)
    assert np.intersect1d(z[0], z[1]).size == 0


def test_row_normals_reject_a_row_wider_than_its_lanes():
    with pytest.raises(ValueError, match="exceeds 64 lanes"):
        rng.row_normals(KEY, np.arange(2), rng.ROW_LANES + 1)


# Three keys, one at or above 2**63, where a signed 64-bit key would wrap.
KEYS = (0, KEY, 2**63 + 12345)


@pytest.mark.parametrize("key", KEYS)
def test_raw64_repeats_no_value_over_200000_counters(key):
    draws = rng.raw64(key, np.arange(200_000))
    assert np.unique(draws).size == draws.size


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("n", [0, 1, 2, 37, 5000])
def test_permutation_is_pure_in_key_and_n_and_sort_kind_free(key, n):
    order = rng.permutation(key, n)
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(rng.permutation(key, n), order)
    stable = np.argsort(rng.raw64(key, np.arange(n)), kind="stable")
    assert np.array_equal(stable, order)


def test_permutation_depends_on_the_key():
    assert not np.array_equal(rng.permutation(KEYS[0], 100),
                              rng.permutation(KEYS[1], 100))


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_below_scales_the_uniform_at_the_same_counter(n):
    counters = np.arange(10_000)
    got = rng.below(KEY, counters, n)
    assert got.min() >= 0 and got.max() < n
    want = np.floor(rng.uniforms(KEY, counters) * n).astype(np.int64)
    assert np.array_equal(got, want)
