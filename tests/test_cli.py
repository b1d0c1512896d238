import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holecount as hc
from holecount import cli, corners, labeling
from holecount.gen import _M5, _M6, _M7


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_json_matrix7(tmp_path, capsys):
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_OK
    (rep,) = json.loads(out)
    assert rep == {
        "component_id": 1,
        "area": 35,
        "c2": 6,
        "c3": 22,
        "c4": 6,
        "holes_formula": 1,
        "holes_oracle": 1,
        "valid": True,
        "agreement": True,
    }


@pytest.mark.parametrize(
    "text", ["000\n000\n", _M7.strip() + "\n", "1101\n0001\n1111\n", "11\n00\n11\n"]
)
def test_analyze_json_is_laid_out_as_indent_2(tmp_path, capsys, text):
    code, out, _ = run_cli(capsys, "analyze", write(tmp_path, "g.txt", text))
    assert code in (cli.EXIT_OK, cli.EXIT_DISAGREEMENT)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_analyze_text_overlay_reproduces_annotations(tmp_path, capsys):
    path = write(tmp_path, "m5.txt", _M5.strip() + "\n")
    code, out, _ = run_cli(capsys, "analyze", path, "--output", "text")
    assert code == cli.EXIT_OK
    overlay = "\n".join(out.splitlines()[:8])
    assert overlay == _M6.strip()
    assert "holes_formula=0" in out


def test_analyze_pbm_autosniff(tmp_path, capsys):
    g = hc.parse_image(_M7.strip(), "ascii01")
    path = write(tmp_path, "m7.pbm", hc.to_pbm_p1(g))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_OK
    assert json.loads(out)[0]["holes_formula"] == 1


@pytest.mark.parametrize(
    "header", [b"P2\n2 2\n255\n0 0 0 0\n", b"P4\n2 2\n\x00\x00", b"  P6\n1 1\n255\n\x00\x00\x00"], ids=["P2", "P4", "P6"]
)
def test_a_pnm_file_other_than_p1_is_sniffed_as_pbm(tmp_path, capsys, header):
    """Without `--format`, any input starting with `P` goes to the PBM
    reader, which names its magic, not to the ascii01 reader."""
    path = tmp_path / "g.pnm"
    path.write_bytes(header)
    code, out, err = run_cli(capsys, "analyze", str(path))
    magic = header.split()[0].decode()
    assert (code, out, err) == (cli.EXIT_INPUT, "", f"error: bad magic '{magic}', expected 'P1' (line 1)\n")


def test_analyze_invalid_component_exits_ok(tmp_path, capsys):
    path = write(tmp_path, "domino.txt", "11\n")
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_OK
    (rep,) = json.loads(out)
    assert rep["valid"] is False
    assert rep["holes_formula"] is None
    assert rep["agreement"] is None


def test_analyze_parse_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "01\n0x1\n")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_INPUT
    assert "error" in err


def test_analyze_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file")
    assert code == cli.EXIT_INPUT
    assert err


def test_analyze_disagreement_exit_2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    real = cli.holes.analyze_image

    def tampered(g, **kwargs):
        reports = real(g, **kwargs)
        from dataclasses import replace

        return tuple(replace(r, holes_oracle=9, agreement=False) for r in reports)

    monkeypatch.setattr(cli.holes, "analyze_image", tampered)
    code, _, _ = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_DISAGREEMENT


def test_curves_matrix7(tmp_path, capsys):
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    code, out, _ = run_cli(capsys, "curves", path)
    assert code == cli.EXIT_OK
    (entry,) = json.loads(out)
    kinds = [c["kind"] for c in entry["contours"]]
    assert kinds == ["outer", "hole"]
    assert all(c["lemma_holds"] for c in entry["contours"])
    assert entry["accounting"]["holds"]
    outer = entry["contours"][0]
    assert outer["cp2"] - outer["cp4"] == 4


def test_curves_invalid_exit_1(tmp_path, capsys):
    path = write(tmp_path, "ring.txt", "111\n101\n111\n")
    code, _, err = run_cli(capsys, "curves", path)
    assert code == cli.EXIT_INPUT
    assert "invalid" in err


def test_genus3d_square(tmp_path, capsys):
    path = write(tmp_path, "sq.txt", "11\n11\n")
    code, out, _ = run_cli(capsys, "genus3d", path)
    assert code == cli.EXIT_OK
    (entry,) = json.loads(out)
    assert entry["m3"] == 8
    assert entry["genus_formula"] == 0 == entry["euler_genus_oracle"]
    assert all(entry["checks"].values())
    assert "simply_connected_identity" in entry["checks"]


def test_genus3d_matrix7(tmp_path, capsys):
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    code, out, _ = run_cli(capsys, "genus3d", path)
    assert code == cli.EXIT_OK
    (entry,) = json.loads(out)
    assert (entry["m3"], entry["m5"], entry["m6"]) == (12, 12, 0)
    assert entry["genus_formula"] == 1
    assert all(entry["checks"].values())
    assert "simply_connected_identity" not in entry["checks"]


def test_genus3d_thin_component_exit_1(tmp_path, capsys):
    path = write(tmp_path, "line.txt", "1111\n")
    code, _, err = run_cli(capsys, "genus3d", path)
    assert code == cli.EXIT_INPUT
    assert err


def test_gen_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "gen", "--kind", "random_blob", "--dims", "24x24", "--seed", "5"
    )
    code2, out2, _ = run_cli(
        capsys, "gen", "--kind", "random_blob", "--dims", "24x24", "--seed", "5"
    )
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    g = hc.parse_image(out1, "ascii01")
    assert (g.height, g.width) == (24, 24)


def test_gen_rect_round_trips_through_analyze(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--kind",
        "rect_with_holes",
        "--dims",
        "16x16",
        "--holes",
        "3",
        "--seed",
        "1",
    )
    assert code == cli.EXIT_OK
    path = write(tmp_path, "rect.txt", out)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == cli.EXIT_OK
    (rep,) = json.loads(out)
    assert rep["holes_formula"] == 3 == rep["holes_oracle"]


def test_gen_pbm_format(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--dims", "16x16", "--seed", "2", "--format", "pbm"
    )
    assert code == cli.EXIT_OK
    assert out.startswith("P1")


def test_gen_impossible_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "gen",
        "--kind",
        "rect_with_holes",
        "--dims",
        "6x6",
        "--holes",
        "9",
    )
    assert code == cli.EXIT_INPUT
    assert err


def test_parser_is_built_once_and_keeps_defaults(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, _ = run_cli(capsys, "gen", "--dims", "8x8", "--seed", "5", "--format", "pbm")
    assert code == cli.EXIT_OK
    code, out, _ = run_cli(capsys, "gen")
    spec = hc.ShapeSpec(kind=hc.gen.RANDOM_BLOB, dims=(64, 64), seed=0)
    assert (code, out) == (cli.EXIT_OK, hc.grid.to_ascii01(hc.gen_random_blob(spec)))


@pytest.mark.parametrize("kind", ["rect_with_holes", "random_blob"])
@pytest.mark.parametrize("dims", ["100000000000x100000000000", "99999999999999999999x4"])
def test_gen_oversize_dims_exit_1(capsys, kind, dims):
    # Sizes numpy refuses before it allocates anything.
    code, out, err = run_cli(capsys, "gen", "--kind", kind, "--dims", dims)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: grid {dims} too large to allocate\n"


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes",
        "64,128",
        "--reps",
        "2",
        "--output",
        "csv",
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("size,")
    assert len(lines) == 1 + 2 * 2
    agree_idx = header.index("agree")
    touches_idx = header.index("census_touches")
    pixels_idx = header.index("pixels")
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[agree_idx] == "True"
        assert int(cells[touches_idx]) == 9 * int(cells[pixels_idx])


def test_bench_text(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "64", "--reps", "1")
    assert code == cli.EXIT_OK
    assert "touch/px" in out
    assert "True" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["analyze", "x", "--oracle", "maybe"],
        ["gen", "--holes", "abc"],
        ["frobnicate"],
    ],
)
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--dims", "64"],
        ["gen", "--dims", "axb"],
        ["bench", "--reps", "0", "--output", "csv"],
        ["bench", "--sizes", "0"],
        ["bench", "--sizes", "abc"],
        ["gen", "--kind", "rect_with_holes", "--holes", "-3"],
        ["gen", "--area", "-1"],
        ["gen", "--area", "0"],
        ["gen", "--seed", "-1"],
        ["gen", "--kind", "rect_with_holes", "--seed", "-1"],
        ["bench", "--sizes", "64", "--reps", "1", "--seed", "-1"],
        # Larger than the address space: the allocation fails at once.
        ["gen", "--kind", "rect_with_holes", "--dims", "99999999x99999999", "--holes", "0"],
        ["gen", "--dims", "99999999x99999999"],
    ],
)
def test_bad_arguments_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


def _tamper_cp2(monkeypatch, delta):
    """Adds `delta` to the cp2 of component 1's contours in the census column
    of every contour table, which the `curves` writer reads."""
    real = cli.curves.CurveTable.__init__

    def tampered(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.census[self.rows[1] : self.rows[2], 0] += delta

    monkeypatch.setattr(cli.curves.CurveTable, "__init__", tampered)


def test_curves_failed_identity_exit_2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    _tamper_cp2(monkeypatch, [1, 1])
    code, out, _ = run_cli(capsys, "curves", path)
    assert code == cli.EXIT_DISAGREEMENT
    assert json.loads(out)[0]["accounting"]["holds"] is False


def test_curves_failed_lemma_exit_2(tmp_path, capsys, monkeypatch):
    # One cp2 moves from the outer contour to the hole's: the sums, and so
    # the accounting, stay as they were.
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    _tamper_cp2(monkeypatch, [-1, 1])
    code, out, _ = run_cli(capsys, "curves", path)
    assert code == cli.EXIT_DISAGREEMENT
    assert json.loads(out)[0]["accounting"]["holds"] is True


def test_genus3d_failed_check_exit_2(tmp_path, capsys, monkeypatch):
    # The writer reads every row's Euler genus from the table's `genus` column.
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    real = cli.solid3d.SurfaceTable.__init__

    def tampered(self, labels):
        real(self, labels)
        self.genus = np.full_like(self.genus, 7)

    monkeypatch.setattr(cli.solid3d.SurfaceTable, "__init__", tampered)
    code, out, _ = run_cli(capsys, "genus3d", path)
    assert code == cli.EXIT_DISAGREEMENT
    assert json.loads(out)[0]["checks"]["genus_eq_euler"] is False


def test_curves_table_rejecting_clean_walks_exit_1(tmp_path, capsys, monkeypatch):
    """A contour table row that fails its check while its walks partition
    the boundary, so it names no point: tracing names the component, no
    traceback."""
    path = write(tmp_path, "m7.txt", _M7.strip() + "\n")
    real = cli.curves.CurveTable.__init__

    def tampered(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.ok[1] = False

    monkeypatch.setattr(cli.curves.CurveTable, "__init__", tampered)
    code, out, err = run_cli(capsys, "curves", path)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "component 1: contour table rejects the component at (1, 2), whose walks partition it\n"


# Three valid components in a row: a square, a ring and a square.
THREE = ["00000000000000", "01101111101100", "01101111101100", "00001101100000",
         "00001111100000", "00001111100000", "00000000000000"]


def _tamper_row_2(monkeypatch, cls, column):
    """Row 2 of `cls`'s `column` is False in every table of three rows."""
    real = cls.__init__

    def tampered(self, labels):
        real(self, labels)
        if labels.component_count == 3:
            getattr(self, column)[2] = False

    monkeypatch.setattr(cls, "__init__", tampered)


def test_curves_stop_rule_disagreement_exit_2(tmp_path, capsys, monkeypatch):
    # Component 2 is flagged invalid but has no validity reason.
    path = write(tmp_path, "three.txt", "\n".join(THREE) + "\n")
    assert run_cli(capsys, "curves", path)[0] == cli.EXIT_OK
    _tamper_row_2(monkeypatch, cli.corners.ComponentTable, "valid")
    code, out, err = run_cli(capsys, "curves", path)
    assert (code, out) == (cli.EXIT_DISAGREEMENT, "")
    assert err == "component 2: flagged by the image's tables, but its own checks pass\n"


def test_genus3d_stop_rule_disagreement_exit_2(tmp_path, capsys, monkeypatch):
    # Component 2's surface row is flagged, but its own surface is clean:
    # only that surface is built.
    path = write(tmp_path, "three.txt", "\n".join(THREE) + "\n")
    assert run_cli(capsys, "genus3d", path)[0] == cli.EXIT_OK
    _tamper_row_2(monkeypatch, cli.solid3d.SurfaceTable, "clean")
    extracted, real = [], cli.solid3d.extract_surface
    monkeypatch.setattr(cli.solid3d, "extract_surface", lambda s: extracted.append(s) or real(s))
    code, out, err = run_cli(capsys, "genus3d", path)
    assert (code, out) == (cli.EXIT_DISAGREEMENT, "")
    assert err == "component 2: flagged by the image's tables, but its own checks pass\n"
    assert len(extracted) == 1


@pytest.mark.parametrize("output", ["json", "text"])
def test_analyze_stop_rule_disagreement_exit_2(tmp_path, capsys, monkeypatch, output):
    # Component 2 is flagged invalid but has no validity reason: its row is
    # printed as it is, and the disagreement is named on stderr.
    path = write(tmp_path, "three.txt", "\n".join(THREE) + "\n")
    argv = ["analyze", path, "--output", output]
    code, plain, err = run_cli(capsys, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    _tamper_row_2(monkeypatch, cli.corners.ComponentTable, "valid")
    assert run_cli(capsys, *argv) == (
        cli.EXIT_DISAGREEMENT, plain, "component 2: flagged by the image's tables, but its own checks pass\n"
    )
    assert run_cli(capsys, *argv, "--validate", "off")[::2] == (cli.EXIT_OK, "")


def test_bench_oracle_reads_the_mosaic(monkeypatch):
    """`oracle_path` on a 2 x 3 tile of squares with one hole each: one
    labelling (the image's box), one mosaic of holes, which labels nothing,
    no component cut out, and the touch model's figures, 5 per image cell
    and 9 per ringed box cell."""
    calls = {"label_mask": 0, "hole_regions": 0, "mask_of": 0, "contexts": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (labeling, corners):
        monkeypatch.setattr(module, "label_mask", counted("label_mask", module.label_mask))
    monkeypatch.setattr(labeling, "hole_regions", counted("hole_regions", labeling.hole_regions))
    monkeypatch.setattr(labeling.LabelMap, "mask_of", counted("mask_of", labeling.LabelMap.mask_of))
    context = corners.ComponentContext.__init__
    monkeypatch.setattr(corners.ComponentContext, "__init__", counted("contexts", context))
    square = np.pad(np.ones((5, 5), dtype=bool), 1)
    square[3, 3] = False
    g = hc.BinaryGrid(np.tile(square, (2, 3)))
    assert cli.oracle_path(g) == (6, 5 * 14 * 21 + 9 * 6 * 7 * 7)
    assert calls == {"label_mask": 1, "hole_regions": 1, "mask_of": 0, "contexts": 0}


# Two components, one with two holes and one with none.
TWO = ["000000000000000", "011111111001110", "011111111001110", "011011011001110",
       "011111111000000", "011111111000000", "000000000000000"]


def test_curves_json_is_json_dumps_layout(tmp_path, capsys):
    # Entries, contours and points are laid out by templates; together they
    # must read as one json.dumps(..., indent=2) would write them.
    path = write(tmp_path, "two.txt", "\n".join(TWO) + "\n")
    code, out, _ = run_cli(capsys, "curves", path)
    assert code == cli.EXIT_OK
    entries = json.loads(out)
    assert [len(e["contours"]) for e in entries] == [3, 1]
    assert out == json.dumps(entries, indent=2) + "\n"


def test_genus3d_json_is_json_dumps_layout(tmp_path, capsys):
    # Genus 2 and genus 0: the entry without and the one with the
    # simply-connected identity, each from its own template.
    path = write(tmp_path, "two.txt", "\n".join(TWO) + "\n")
    code, out, _ = run_cli(capsys, "genus3d", path)
    assert code == cli.EXIT_OK
    entries = json.loads(out)
    assert [e["genus_formula"] for e in entries] == [2, 0]
    assert ["simply_connected_identity" in e["checks"] for e in entries] == [False, True]
    assert out == json.dumps(entries, indent=2) + "\n"


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh process that imports the CLI
    has no scipy module loaded (scipy serves the tests as a reference)."""
    src = str(Path(hc.__file__).resolve().parents[1])
    code = "import sys, holecount.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
