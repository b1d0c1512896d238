import json

import pytest

from hcbench import workloads
from hcbench.check import check_response
from hcbench.truth import image_truth


@pytest.fixture(scope="module")
def small_valid(tmp_path_factory):
    g = workloads.many_small(5, tiles=3)
    path = tmp_path_factory.mktemp("valid") / "tile.txt"
    path.write_bytes(g.data)
    truth = image_truth(g)
    assert any(t.holes for t in truth.components)
    return path, truth


@pytest.fixture(scope="module")
def small_noisy(tmp_path_factory):
    g = workloads.noisy(2, side=16)
    path = tmp_path_factory.mktemp("noisy") / "noise.txt"
    path.write_bytes(g.data)
    truth = image_truth(g)
    assert truth.first_locally_invalid() is not None
    return path, truth


def _corrupt(stdout, edit):
    data = json.loads(stdout)
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("cmd", ["analyze", "curves", "genus3d"])
def test_correct_responses_pass(run_cli, small_valid, small_noisy, cmd):
    for path, truth in (small_valid, small_noisy):
        rc, out, err = run_cli(cmd, path)
        assert check_response(cmd, truth, rc, out, err) == []


def _holed(data):
    return next(d for d in data if d.get("holes_formula") or d.get("genus_formula"))


def _contour_of_holed(data):
    return next(d for d in data if len(d["contours"]) > 1)


@pytest.mark.parametrize(
    "cmd, edit",
    [
        ("analyze", lambda data: _holed(data).update(holes_formula=_holed(data)["holes_formula"] + 1)),
        ("analyze", lambda data: data[0].update(valid=False)),
        ("analyze", lambda data: data[0].update(c2=data[0]["c2"] + 1)),
        ("analyze", lambda data: data.pop()),
        ("curves", lambda data: data[0]["contours"][0].update(lemma_holds=False)),
        ("curves", lambda data: _contour_of_holed(data)["contours"].pop()),
        ("curves", lambda data: data[0]["contours"][0]["points"].pop()),
        ("genus3d", lambda data: _holed(data).update(genus_formula=0)),
        ("genus3d", lambda data: data[0]["checks"].update(m6_zero=False)),
    ],
)
def test_corrupted_valid_response_is_flagged(run_cli, small_valid, cmd, edit):
    path, truth = small_valid
    rc, out, err = run_cli(cmd, path)
    assert check_response(cmd, truth, rc, _corrupt(out, edit), err)


def test_wrong_exit_code_is_flagged(run_cli, small_valid):
    path, truth = small_valid
    rc, out, err = run_cli("analyze", path)
    assert check_response("analyze", truth, 2, out, err)


def _first_invalid(data, truth):
    return data[truth.first_locally_invalid() - 1]


def test_corrupted_noisy_analyze_is_flagged(run_cli, small_noisy):
    path, truth = small_noisy
    rc, out, err = run_cli("analyze", path)

    def flip_valid(data):
        _first_invalid(data, truth).update(valid=True)

    def assert_count(data):
        _first_invalid(data, truth).update(holes_formula=0)

    def area(data):
        data[-1].update(area=data[-1]["area"] + 1)

    for edit in (flip_valid, assert_count, area):
        assert check_response("analyze", truth, rc, _corrupt(out, edit), err)


@pytest.mark.parametrize("cmd", ["curves", "genus3d"])
def test_corrupted_rejection_is_flagged(run_cli, small_noisy, cmd):
    path, truth = small_noisy
    rc, out, err = run_cli(cmd, path)
    lines = err.splitlines()
    assert check_response(cmd, truth, 0, out, err)
    if len(lines) > 1:
        assert check_response(cmd, truth, rc, out, "\n".join(lines[1:]))
    moved = lines[0].rsplit("(", 1)[0] + "(999, 999)"
    assert check_response(cmd, truth, rc, out, "\n".join([moved] + lines[1:]))
    assert check_response(cmd, truth, rc, out, err.replace("component ", "component 9", 1))
