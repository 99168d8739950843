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
