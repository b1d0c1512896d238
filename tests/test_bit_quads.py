"""Why the paper's formula holds: it is Gray's bit-quad Euler formula on
well-composed sets.

Gray's 4-connected formula (S. B. Gray, IEEE Trans. Computers C-20, 1971)
reads a set's Euler number from its 2 x 2 windows, or bit quads: χ = (Q1 −
Q3 + 2·QD) / 4, where Q1, Q3 and QD count the windows holding exactly one,
exactly three, and exactly the two diagonal cells of the set. On a
well-composed set (Latecki et al., CVIU 1995) no window holds a diagonal
pair, and each window with one cell is an outward corner, each with three
an inward corner, so Q1 = c2, Q3 = c4 and QD = 0: Gray's χ = 1 − h is the
paper's h = 1 + (c4 − c2) / 4. The quads here are counted in numpy on each
valid component's ringed box, read with scipy's `find_objects`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import holecount as hc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from hcbench.workloads import WORKLOADS  # noqa: E402  (the benchmark's seeded inputs)


def bit_quads(own: np.ndarray) -> tuple[int, int, int]:
    """(Q1, Q3, QD) of a bool mask: its 2 x 2 windows holding exactly one,
    exactly three, and exactly the two diagonal cells of the mask."""
    a, b, c, d = own[:-1, :-1], own[:-1, 1:], own[1:, :-1], own[1:, 1:]
    n = a.astype(np.intp) + b + c + d
    return tuple(np.count_nonzero(m) for m in (n == 1, n == 3, (n == 2) & (a == d)))


def assert_bit_quads(g: hc.BinaryGrid) -> int:
    """Q1 = c2, Q3 = c4 and QD = 0 on every valid row, and Gray's χ is one
    less the mosaic's hole count; returns how many rows were checked."""
    labels = hc.label_components(g)
    table, box = labels.table, labels.box
    rows = np.flatnonzero(table.valid[1:]) + 1
    boxes = ndimage.find_objects(box)
    for cid in rows.tolist():
        q1, q3, qd = bit_quads(np.pad(box[boxes[cid - 1]] == cid, 1))
        assert (q1, q3, qd) == (table.classes[cid, 2], table.classes[cid, 4], 0), cid
        assert q1 - q3 + 2 * qd == 4 * (1 - labels.hole_counts[cid]), cid
    return rows.size


def test_bit_quads_of_every_4x4_image(every_4x4_image):
    assert assert_bit_quads(every_4x4_image) == 1898


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bit_quads_of_the_benchmark_workloads(workload):
    g = hc.BinaryGrid(WORKLOADS[workload](1).mask)
    assert assert_bit_quads(g) > 0
