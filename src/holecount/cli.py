"""Command-line interface: analyze, curves, genus3d, gen, bench.

Exit codes: 0 success, 1 input or validity error, 2 formula/oracle
disagreement or a component that the image's tables flag but whose own
checks pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import corners, curves, gen, grid, holes, solid3d
from .errors import HolecountError
from .labeling import label_components

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREEMENT = 2
_FLAGGED = "component %d: flagged by the image's tables, but its own checks pass"


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _read_grid(args) -> grid.BinaryGrid:
    data = _read_input(args.input)
    fmt = args.format
    if fmt is None:
        fmt = "pbm" if data.lstrip().startswith(b"P") else "ascii01"
    return grid.parse_image(data, "pbm_p1" if fmt == "pbm" else "ascii01")


def _ints(text: str, sep: str) -> list[int]:
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        raise HolecountError(f"expected integers separated by {sep!r}, got {text!r}") from None


def render_annotations(g: grid.BinaryGrid, reports) -> str:
    """Digit overlay in the style of the worked example: 2/4 corner classes,
    1 for other component points, 0 for background. `reports` are one
    image's (`holes.analyze_image`), all painted at once from its corner table."""
    canvas = g.cells.view(np.uint8) + ord("0")
    if reports:
        labels = reports[0].classification.context.labels
        paint = np.isin(labels.table.corner, (2, 4))
        rows, cols = np.divmod(labels.table.cells[paint], labels.box.shape[1])
        canvas[rows + labels.origin[0], cols + labels.origin[1]] = labels.table.corner[paint] + ord("0")
    return grid.text_rows(canvas)[:-1]


def cmd_analyze(args) -> int:
    g = _read_grid(args)
    reports = holes.analyze_image(
        g, run_oracle=args.oracle == "on", run_validation=args.validate == "on"
    )
    if args.output == "json":
        print(_records_json([rep.to_dict() for rep in reports]))
    else:
        print(render_annotations(g, reports))
        for rep in reports:
            d = rep.to_dict()
            cid = d.pop("component_id")
            print(f"component {cid}: " + " ".join(f"{k}={v}" for k, v in d.items()))
    valid = reports[0].classification.context.labels.table.valid if reports else None
    flagged = [cid for cid, rep in enumerate(reports, 1) if rep.validity and rep.validity.valid and not valid[cid]]
    for cid in flagged:
        print(_FLAGGED % cid, file=sys.stderr)
    return EXIT_DISAGREEMENT if flagged or any(rep.agreement is False for rep in reports) else EXIT_OK


def _stop(g, labels, cid: int, check) -> int:
    """Exit code of a request that the image's tables stop at component
    `cid`, the first row they flag, which alone is cut out: if it is invalid
    its reasons are printed, else `check(g, ctx)` runs on it, raises where
    the request stops and has its error printed. A component that the tables
    flag but whose own checks pass is a disagreement of the two derivations."""
    ctx = corners.ComponentContext.of_label(labels, cid)
    if not labels.table.valid[cid]:
        reasons = corners.validate_component(g, ctx).reasons
        for kind, p in reasons:
            print(f"component {cid} invalid: {kind} at {p}", file=sys.stderr)
        if reasons:
            return EXIT_INPUT
    else:
        try:
            check(g, ctx)
        except HolecountError as exc:
            print(f"component {cid}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    print(_FLAGGED % cid, file=sys.stderr)
    return EXIT_DISAGREEMENT


def _object(depth: int, items) -> str:
    """How `json.dumps(..., indent=2)` lays out an object at `depth` in the
    printed list: `items` are its keys, each with its value's layout."""
    pad = "\n" + "  " * depth
    return "{" + pad + "  " + f",{pad}  ".join(f'"{key}": {value}' for key, value in items) + pad + "}"


def _array(depth: int, parts: list[str]) -> str:
    """Likewise for a list at `depth` whose values are laid out as `parts`."""
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + f",{pad}  ".join(parts) + pad + "]" if parts else "[]"


_BOOL = ("false", "true")
_POINT = _array(5, ["%d", "%d"])
# A contour and an entry of `curves` on either side of their list's items ("@").
_CONTOUR = _object(3, [
    ("kind", '"%s"'), ("points", _array(4, ["@"])), *[(k, "%d") for k in ("cp2", "cp3", "cp4")], ("lemma_holds", "%s")
]).split("@")
_CURVES = _object(1, [
    ("component_id", "%d"),
    ("contours", _array(2, ["@"])),
    ("accounting", _object(2, [("lhs", "%d"), ("rhs", "%d"), ("holds", "%s")])),
]).split("@")
# Before a contour's first point: an outer one opens its entry, a hole follows a contour.
_OUTER, _HOLE = ",\n  " + _CURVES[0] + _CONTOUR[0] % "outer", ",\n      " + _CONTOUR[0] % "hole"
_SEP = ",\n" + "  " * 5  # between two points
_CHUNK = 1 << 13  # lookups joined at a time
_CHECKS = ("m6_zero", "m3_eq_2c2", "m5_eq_2c4", "genus_eq_holes", "genus_eq_euler", "simply_connected_identity")
# A `genus3d` entry cut at its 13 values: the text before each value, and its closing.
_ENTRY = _object(1, [
    *[(key, "@") for key in ("component_id", "m3", "m4", "m5", "m6", "genus_formula", "euler_genus_oracle")],
    ("checks", _object(2, [(key, "@") for key in _CHECKS])),
]).split("@")
# Texts 0-2 are the two marks and an absent check, 3-4 the first and a later entry's opening.
_ENTRY_TEXT = [*_BOOL, "", "[\n  " + _ENTRY[0], ",\n  " + _ENTRY[0], *_ENTRY[1:]]


def _emit(text: np.ndarray, index: np.ndarray) -> None:
    """Writes `text.take(index)`, `_CHUNK` lookups joined at a time: no
    string the size of the output is built."""
    for a in range(0, index.size, _CHUNK):
        sys.stdout.write("".join(text.take(index[a : a + _CHUNK]).tolist()))


def _records_json(records: list[dict]) -> str:
    """`json.dumps(records, indent=2)` of dicts with the same keys, whose
    values are numbers, booleans or None: one template, filled from one
    C-encoded `json.dumps` of all the values."""
    if not records:
        return "[]"
    values = json.dumps([v for r in records for v in r.values()], separators=(",", ":"))
    return _array(0, [_object(1, [(key, "%s") for key in records[0]])] * len(records)) % tuple(values[1:-1].split(","))


@functools.cache  # built per process, on the first request that needs `size`
def _point_text(size: int) -> np.ndarray:
    """A point's text in two parts, by coordinate below `size`: its row's at the row, with the
    separator after the point before, and its column's at `size` plus the column, with its `]`."""
    start, mid, end = _POINT.split("%d")
    digits = [str(v) for v in range(size)]
    return np.array([_SEP + start + d + mid for d in digits] + [d + end for d in digits], dtype=object)


def cmd_curves(args) -> int:
    """Every contour and its counts, from the image's contour table. A valid
    component's contours partition its boundary (see
    `corners.ComponentTable`), so its row passes the table's check. On any
    other image the request stops (`_stop`) at the first invalid component,
    else at the first row that fails the check, traced on its own. A point's
    text is two lookups (`_point_text`); a contour's first and last take its
    opening and closing, filled from the census and accounting columns."""
    g = _read_grid(args)
    labels = label_components(g, "foreground")
    valid = labels.table.valid[1:]
    if not valid.all():
        return _stop(g, labels, 1 + int(np.argmin(valid)), curves.trace_contours)
    table = labels.curves
    if not table.ok[1:].all():
        return _stop(g, labels, 1 + int(np.argmin(table.ok[1:])), curves.trace_contours)
    if not labels.component_count:
        print("[]")
        return EXIT_OK
    begin, xy, starts = table.begin, table.points, table.rows[1:-1]
    cp2, cp3, cp4 = table.census.T
    ids = np.zeros(len(cp2), dtype=int)  # a component's id at its outer contour, 0 at a hole's
    ids[starts] = np.arange(1, len(starts) + 1)
    lemma = np.where(ids > 0, cp2 - cp4, cp4 - cp2) == 4
    lhs, rhs = np.add.reduceat(cp4 - cp2, starts), 4 * np.diff(table.rows[1:]) - 8
    size = 1 << int(xy.max()).bit_length()
    text = _point_text(size)
    heads = [(_OUTER % i if i else _HOLE) + r[len(_SEP) :] for i, r in zip(ids.tolist(), text.take(xy[begin[:-1], 0]))]
    heads[0] = "[" + heads[0][1:]
    counts = zip(cp2.tolist(), cp3.tolist(), cp4.tolist(), np.take(_BOOL, lemma).tolist())
    tails = [c + _CONTOUR[1] % v for c, v in zip(text.take(size + xy[begin[1:] - 1, 1]), counts)]
    accounting = zip(lhs.tolist(), rhs.tolist(), np.take(_BOOL, lhs == rhs).tolist())
    for i, v in zip(np.subtract(table.rows[2:], 1).tolist(), accounting):
        tails[i] += _CURVES[1] % v
    index = (xy + (0, size)).ravel()
    index[np.r_[2 * begin[:-1], 2 * begin[1:] - 1]] = len(text) + np.arange(2 * len(cp2))
    _emit(np.concatenate([text, np.array(heads + tails, dtype=object)]), index)
    print("\n]")
    return EXIT_OK if lemma.all() and (lhs == rhs).all() else EXIT_DISAGREEMENT


def _genus3d_row(g, ctx) -> None:
    """Builds the surface of the component of `ctx` on its own and raises
    where the request stops: on a surface that is not clean, naming the
    first bad cell, or on a formula that does not divide."""
    sc = solid3d.extract_surface(solid3d.double_component(g, ctx))
    solid3d.genus_by_formula(solid3d.classify_surface_points(sc))
    solid3d.euler_genus_oracle(sc)
    holes.holes_by_formula(ctx.labels.table.censuses[ctx.cid])


def cmd_genus3d(args) -> int:
    """Surface census, both genera and their checks, as whole columns read
    from the image's tables. The request stops (`_stop`) at the first
    invalid component, as `curves` does, with no surface built; else at the
    first row whose surface is not clean or whose formulas do not divide,
    the only one that builds its own surface (`_genus3d_row`). The formulas
    are those of `solid3d.genus_by_formula`, `holes.holes_by_formula` and
    `solid3d.check_simply_connected_identity` on whole arrays;
    `tests/test_cli_reference.py` holds them to those."""
    g = _read_grid(args)
    labels = label_components(g, "foreground")
    table = labels.table
    valid = table.valid[1:]
    if not valid.all():
        return _stop(g, labels, 1 + int(np.argmin(valid)), _genus3d_row)
    surface = labels.surface
    rows = np.column_stack([surface.points[1:, 3:], surface.genus[1:]])
    c2, c4 = table.classes[1:, 2], table.classes[1:, 4]
    m3, _, m5, m6, g_euler = rows.T
    good = surface.clean[1:] & ((m5 + 2 * m6 - m3) % 8 == 0) & ((c4 - c2) % 4 == 0)
    if not good.all():
        return _stop(g, labels, 1 + int(np.argmin(good)), _genus3d_row)
    genus = 1 + (m5 + 2 * m6 - m3) // 8
    checks = np.stack([
        m6 == 0, m3 == 2 * c2, m5 == 2 * c4, genus == 1 + (c4 - c2) // 4, genus == g_euler, m3 == 8 + m5 + 2 * m6
    ], axis=1)
    simple = genus == 0
    ints = np.column_stack([np.arange(1, len(rows) + 1), rows[:, :4], genus, g_euler])
    values, at = np.unique(ints, return_inverse=True)
    # A row is 27 lookups: its opening, then each value after the text before it, then the closing.
    index = np.empty((len(rows), 27), dtype=int)
    index[:, ::2] = np.arange(4, 18)
    index[:1, 0] = 3
    index[:, 1:14:2] = len(_ENTRY_TEXT) + at.reshape(ints.shape)
    index[:, 15::2] = checks
    index[~simple, 24:26] = 2  # no sixth check, nor the text before it
    _emit(np.array(_ENTRY_TEXT + [str(v) for v in values.tolist()], dtype=object), index.ravel())
    print("\n]" if len(rows) else "[]")
    holds = checks[:, :5].all() and checks[simple, 5].all()
    return EXIT_OK if holds else EXIT_DISAGREEMENT


def cmd_gen(args) -> int:
    dims = _ints(args.dims.lower(), "x")
    if len(dims) != 2:
        raise HolecountError(f"--dims must be HxW, got {args.dims!r}")
    if args.kind == "rect_with_holes":
        spec = gen.random_rect_spec(args.seed, tuple(dims), args.holes)
        g = gen.gen_rect_with_holes(spec)
    else:
        spec = gen.ShapeSpec(
            kind=gen.RANDOM_BLOB,
            dims=tuple(dims),
            seed=args.seed,
            target_area=args.area,
        )
        g = gen.gen_random_blob(spec)
    to_text = grid.to_pbm_p1 if args.format == "pbm" else grid.to_ascii01
    sys.stdout.write(to_text(g))
    return EXIT_OK


def census_path(g: grid.BinaryGrid) -> tuple[int | None, int]:
    """Holes of a single-component image by pure corner counting.

    Returns (holes, pixel_touches); one bounded-constant pass.
    """
    census, touches = corners.image_census(g)
    diff = census.c4 - census.c2
    h = 1 + diff // 4 if diff % 4 == 0 else None
    return h, touches


def oracle_path(g: grid.BinaryGrid) -> tuple[int, int]:
    """Holes of a single-component image by complement labeling, summed
    from the image's mosaic (`labeling.hole_regions`). The mosaic reads the
    boundary cells of the corner table that `census_path` builds, so this
    path builds it too: its extra time is the labelling and the mosaic.

    Returns (holes, pixel_touches). The touch count is a model, not a
    measurement, of labelling each component's box grown by a background
    ring alone: 5 per cell per 4-connected labeling (the cell plus the
    structuring element's reads) of the image and of each ringed box, and 1
    per ringed cell per other pass (cutting the box out, copying it into its
    ring, summing its area, negating it).
    """
    labels = label_components(g, "foreground")
    ringed = np.prod(labels.table.high - labels.table.low + 3, axis=1)
    return sum(labels.hole_counts[1:]), 5 * g.cells.size + (4 + 5) * int(ringed.sum())


def cmd_bench(args) -> int:
    sizes = _ints(args.sizes, ",")
    if args.reps < 1:
        raise HolecountError(f"--reps must be at least 1, got {args.reps}")
    rows = []
    for size in sizes:
        spec = gen.random_rect_spec(args.seed, (size, size), min(5, max(size, 0) // 8))
        g = gen.gen_rect_with_holes(spec)
        n_px = size * size
        for rep in range(args.reps):
            t0 = time.perf_counter()
            h_census, census_touches = census_path(g)
            t1 = time.perf_counter()
            h_oracle, oracle_touches = oracle_path(g)
            t2 = time.perf_counter()
            rows.append(
                {
                    "size": size,
                    "rep": rep,
                    "pixels": n_px,
                    "census_s": t1 - t0,
                    "oracle_s": t2 - t1,
                    "census_px_per_s": n_px / max(t1 - t0, 1e-12),
                    "census_touches": census_touches,
                    "oracle_touches": oracle_touches,
                    "touches_per_px": census_touches / n_px,
                    "agree": h_census == h_oracle,
                }
            )
    if args.output == "csv":
        cols = list(rows[0].keys())
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    else:
        print(
            f"{'size':>6} {'rep':>3} {'census_s':>10} {'oracle_s':>10} "
            f"{'Mpx/s':>8} {'touch/px':>8} {'agree':>5}"
        )
        for row in rows:
            print(
                f"{row['size']:>6} {row['rep']:>3} {row['census_s']:>10.4f} "
                f"{row['oracle_s']:>10.4f} "
                f"{row['census_px_per_s'] / 1e6:>8.1f} "
                f"{row['touches_per_px']:>8.1f} {str(row['agree']):>5}"
            )
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Exits EXIT_INPUT on a usage error; argparse's own 2 would read as a
    failed cross-check. Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first `main` call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="holecount",
        description="Count holes in 2D binary-image components by corner census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="image file or '-' for standard input")
        p.add_argument(
            "--format", choices=["pbm", "ascii01"], default=None,
            help="input format (default: sniffed from the data)",
        )

    p = sub.add_parser("analyze", help="per-component census, formula, oracle")
    add_input(p)
    p.add_argument("--oracle", choices=["on", "off"], default="on")
    p.add_argument("--validate", choices=["on", "off"], default="on")
    p.add_argument("--output", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("curves", help="contours, per-curve censuses, accounting")
    add_input(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("genus3d", help="doubling, surface census, genus")
    add_input(p)
    p.set_defaults(func=cmd_genus3d)

    p = sub.add_parser("gen", help="generate a synthetic shape")
    p.add_argument("--kind", choices=["rect_with_holes", "random_blob"],
                   default="random_blob")
    p.add_argument("--dims", default="64x64", help="HxW")
    p.add_argument("--holes", type=int, default=2,
                   help="hole count for rect_with_holes")
    p.add_argument("--area", type=int, default=None,
                   help="target area for random_blob")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["pbm", "ascii01"], default="ascii01")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="census path vs oracle path timings")
    p.add_argument("--sizes", default="1024,2048", help="comma-separated sizes")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, HolecountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
