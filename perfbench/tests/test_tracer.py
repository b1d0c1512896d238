import sys

import pytest

from hcbench import workloads
from hcbench.tracer import Span, Tracer, self_times


def _bindings():
    """Every attribute of every loaded holecount module, by object identity."""
    import holecount.labeling

    found = {
        (name, key): id(value)
        for name, m in sys.modules.items()
        if m is not None and (name == "holecount" or name.startswith("holecount."))
        for key, value in vars(m).items()
    }
    found["LabelMap.mask_of"] = id(holecount.labeling.LabelMap.__dict__["mask_of"])
    return found


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, -1),
        Span(0, "holes.analyze_image", 1.0, 4.0, 0),
        Span(0, "corners.neighbor_counts", 2.0, 3.0, 1),
        Span(0, "grid.parse_image", 5.0, 9.0, 0),
        Span(1, "cli.main", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert sum(self_times(spans[:4])) == 10.0


def test_tracer_restores_every_binding(tmp_path, run_cli):
    import holecount.corners
    import holecount.holes

    path = tmp_path / "tile.txt"
    path.write_bytes(workloads.many_small(1, tiles=2).data)
    before = _bindings()
    with Tracer() as tracer:
        # Names imported with `from .corners import ...` are wrapped too.
        assert holecount.holes.classify_corners is not holecount.corners.classify_corners.__wrapped__
        assert holecount.holes.classify_corners.__wrapped__ is holecount.corners.classify_corners.__wrapped__
        run_cli("analyze", path)
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "holes.analyze_component", "corners.classify_corners",
            "labeling.mask_of", "labeling.holes_in_mask"} <= names
    by_index = tracer.spans
    census_parents = {
        by_index[s.parent].name for s in tracer.spans if s.name == "corners.classify_corners"
    }
    assert "holes.analyze_component" in census_parents
    assert tracer.counts["holes.components"] == 4


def test_self_times_of_a_request_sum_to_its_root_span(tmp_path, run_cli):
    path = tmp_path / "tile.txt"
    path.write_bytes(workloads.many_small(2, tiles=2).data)
    with Tracer() as tracer:
        for request, cmd in enumerate(("analyze", "curves", "genus3d")):
            tracer.request = request
            run_cli(cmd, path)
    own = self_times(tracer.spans)
    for request in range(3):
        roots = [s for s in tracer.spans if s.request == request and s.parent < 0]
        assert [s.name for s in roots] == ["cli.main"]
        total = sum(t for s, t in zip(tracer.spans, own) if s.request == request)
        assert total == pytest.approx(roots[0].end - roots[0].start, abs=1e-9)
        assert min(own) > -1e-9
