import numpy as np
import pytest

from holecount import gen
from holecount.grid import BinaryGrid


@pytest.fixture(scope="session")
def fixtures():
    return gen.paper_fixtures()


@pytest.fixture(scope="session")
def m5(fixtures):
    return fixtures["m5"]


@pytest.fixture(scope="session")
def m7(fixtures):
    return fixtures["m7"]


@pytest.fixture(scope="session")
def m6_annotations(fixtures):
    return fixtures["m6_annotations"]


@pytest.fixture(scope="session")
def every_4x4_image():
    """All 65,536 4 x 4 images in one grid, one background row and column
    between tiles."""
    tiles = np.zeros((256, 256, 5, 5), dtype=bool)
    tiles[:, :, :4, :4] = (np.arange(65536)[:, None] >> np.arange(16) & 1).reshape(256, 256, 4, 4)
    return BinaryGrid(tiles.transpose(0, 2, 1, 3).reshape(1280, 1280))


def make_shape_suite(count):
    """Half rectangles with 0-5 holes, half random blobs up to 128x128."""
    import holecount as hc

    shapes = []
    blob_dims = [(16, 16), (24, 24), (32, 32), (48, 48), (64, 64), (128, 128)]
    for i in range(count // 2):
        hole_count = i % 6
        side = 14 + (i % 7) * 4
        spec = hc.random_rect_spec(i, (side, side), hole_count)
        shapes.append((f"rect-{i}", hc.gen_rect_with_holes(spec), hole_count))
    for i in range(count - count // 2):
        dims = blob_dims[i % len(blob_dims)]
        g = hc.gen_random_blob(
            hc.ShapeSpec(kind=hc.gen.RANDOM_BLOB, dims=dims, seed=i)
        )
        shapes.append((f"blob-{i}", g, None))
    return shapes


@pytest.fixture(scope="session")
def shape_suite_1000():
    """1,000 generated shapes plus the wall time spent generating them."""
    import time

    t0 = time.perf_counter()
    shapes = make_shape_suite(1000)
    return shapes, time.perf_counter() - t0
