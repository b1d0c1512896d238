import dataclasses

import pytest

from hcbench import workloads
from hcbench.truth import image_truth


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_bytes(name):
    build = workloads.WORKLOADS[name]
    first, again, other = build(7), build(7), build(8)
    assert first.data == again.data
    assert first.data != other.data


def test_spec_holes_match_complement_count():
    g = workloads.many_small(3, tiles=5)
    from_spec = image_truth(g)
    from_scipy = image_truth(dataclasses.replace(g, spec_holes={}))
    assert len(from_spec.components) == 25
    assert [t.holes for t in from_spec.components] == [
        t.holes for t in from_scipy.components
    ]
    assert any(t.holes for t in from_spec.components)


def test_writers_round_trip_through_the_parser():
    from holecount.grid import parse_image

    g = workloads.noisy(1, side=12)
    assert (parse_image(workloads.ascii01_bytes(g.mask), "ascii01").cells == g.mask).all()
    assert (parse_image(workloads.pbm_p1_bytes(g.mask), "pbm_p1").cells == g.mask).all()
