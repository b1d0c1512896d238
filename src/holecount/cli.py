"""Command-line interface: analyze, curves, genus3d, gen, bench.

Exit codes: 0 success, 1 input or validity error, 2 formula/oracle
disagreement.
"""

from __future__ import annotations

import argparse
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


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _read_grid(args) -> grid.BinaryGrid:
    data = _read_input(args.input)
    fmt = args.format
    if fmt is None:
        fmt = "pbm" if data.lstrip().startswith(b"P1") else "ascii01"
    return grid.parse_image(data, "pbm_p1" if fmt == "pbm" else "ascii01")


def _ints(text: str, sep: str) -> list[int]:
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        raise HolecountError(f"expected integers separated by {sep!r}, got {text!r}") from None


def render_annotations(g: grid.BinaryGrid, reports) -> str:
    """Digit overlay in the style of the worked example: 2/4 corner classes,
    1 for other component points, 0 for background."""
    canvas = g.cells.view(np.uint8) + ord("0")
    for rep in reports:
        ctx = rep.classification.context
        rows, cols = np.nonzero(ctx.boundary & ((ctx.direct == 2) | (ctx.direct == 4)))
        canvas[rows + ctx.origin[0], cols + ctx.origin[1]] = ctx.direct[rows, cols] + ord("0")
    return grid.text_rows(canvas)[:-1]


def cmd_analyze(args) -> int:
    g = _read_grid(args)
    reports = holes.analyze_image(
        g, run_oracle=args.oracle == "on", run_validation=args.validate == "on"
    )
    if args.output == "json":
        print(_to_json([rep.to_dict() for rep in reports]))
    else:
        print(render_annotations(g, reports))
        for rep in reports:
            d = rep.to_dict()
            cid = d.pop("component_id")
            print(f"component {cid}: " + " ".join(f"{k}={v}" for k, v in d.items()))
    if any(rep.agreement is False for rep in reports):
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _invalid(g, labels, cid) -> bool:
    """Whether component `cid` is invalid; if so, its reasons are printed."""
    if labels.table.valid[cid]:
        return False
    validity = corners.validate_component(g, corners.ComponentContext.of_label(labels, cid))
    for kind, p in validity.reasons:
        print(f"component {cid} invalid: {kind} at {p}", file=sys.stderr)
    return not validity.valid


def _each_valid_component(args, entry_of, check_first=False) -> int:
    """Print `entry_of(g, labels, cid) -> (entry, holds)` of every component
    as JSON. Stops with EXIT_INPUT at the first invalid component, naming its
    reasons, or at the first entry that raises; exits EXIT_DISAGREEMENT when
    some entry's identities fail. With `check_first`, for entries that
    cannot fail on a valid component, no entry is made until every
    component is known to be valid, so none is made that is not printed."""
    g = _read_grid(args)
    labels = label_components(g, "foreground")
    cids = range(1, labels.component_count + 1)
    if check_first and any(_invalid(g, labels, cid) for cid in cids):
        return EXIT_INPUT
    out, all_hold = [], True
    for cid in cids:
        if not check_first and _invalid(g, labels, cid):
            return EXIT_INPUT
        try:
            entry, holds = entry_of(g, labels, cid)
        except HolecountError as exc:
            print(f"component {cid}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        out.append(entry)
        all_hold = all_hold and holds
    print(_to_json(out))
    return EXIT_OK if all_hold else EXIT_DISAGREEMENT


# A contour point as json.dumps(..., indent=2) lays it out at its depth:
# the top list > an entry > "contours" > a contour > "points".
_POINT = "[\n            %d,\n            %d\n          ]"
_POINTS_MARK = "@points"
_NESTED = {dict, list}


def _shape(value, leaves: list):
    """What the indent=2 layout of a JSON value depends on: the keys of its
    dicts and the lengths of its lists. Its scalars and empty containers
    are appended to `leaves`, in the order they are written."""
    if type(value) is dict and value:
        if _NESTED.isdisjoint(map(type, value.values())):
            leaves.extend(value.values())
            return tuple(value)
        return tuple((key, _shape(v, leaves)) for key, v in value.items())
    if type(value) is list and value:
        return (None, *[_shape(v, leaves) for v in value])
    leaves.append(value)
    return None


def _template(shape, pad: str, memo: dict) -> str:
    """The indent=2 layout of a value of that shape at the indent of `pad`,
    with %s for each leaf; `memo` keeps the layouts made, by shape and pad."""
    if shape is None:
        return "%s"
    if (shape, pad) not in memo:
        inner = pad + "  "
        if shape[0] is None:  # a list
            memo[shape, pad] = "[" + ",".join([inner + _template(s, inner, memo) for s in shape[1:]]) + pad + "]"
        else:
            items = [(key, None) if type(key) is str else key for key in shape]
            parts = [f"{inner}{json.dumps(k)}: {_template(s, inner, memo)}" for k, s in items]
            memo[shape, pad] = "{" + ",".join(parts) + pad + "}"
    return memo[shape, pad]


def _to_json(entries: list[dict]) -> str:
    """`json.dumps(entries, indent=2)`, which would run the pure-Python
    encoder over every value: each entry is laid out by the template of its
    shape, made once per shape and indent in this call (the contours of one
    entry share theirs), with every leaf encoded in one C-encoded
    `json.dumps` call, and every contour's points ((k, 2) arrays, replaced in `entries` by a mark)
    by one format of `_POINT` repeated."""
    if not entries:
        return "[]"
    points, leaves, memo, layout = [], [], {}, []
    for entry in entries:
        for contour in entry.get("contours", ()):
            points.append(contour["points"])
            contour["points"] = _POINTS_MARK
        layout.append(_template(_shape(entry, leaves), "\n  ", memo))
    # An encoded leaf holds no raw newline, so newlines can separate them.
    values = json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n")
    parts = (("[\n  " + ",\n  ".join(layout) + "\n]") % tuple(values)).split(f'"{_POINTS_MARK}"')
    out = [parts[0]]
    for pts, part in zip(points, parts[1:]):
        body = ",\n          ".join([_POINT] * len(pts)) % tuple(np.ravel(pts).tolist())
        out += ["[\n          ", body, "\n        ]", part]
    return "".join(out)


def _curves_entry(g, labels, cid) -> tuple[dict, bool]:
    """Row `cid` of the image's contour table. A row whose contours fail is
    traced on its own, which raises the error naming the first revisited
    point."""
    table = labels.curves
    if not table.ok[cid]:
        curves.trace_contours(g, corners.ComponentContext.of_label(labels, cid))
    counts = table.counts(cid)
    lhs, rhs, identity = curves.accounting_identity(counts)
    entry = {
        "component_id": cid,
        "contours": [],
        "accounting": {"lhs": lhs, "rhs": rhs, "holds": identity},
    }
    for (kind, points), (cp2, cp3, cp4) in zip(table.contours(cid), counts):
        lemma = (cp2 - cp4 if kind == curves.OUTER else cp4 - cp2) == 4
        entry["contours"].append(
            {
                "kind": kind,
                "points": points,
                "cp2": cp2,
                "cp3": cp3,
                "cp4": cp4,
                "lemma_holds": lemma,
            }
        )
    holds = identity and all(c["lemma_holds"] for c in entry["contours"])
    return entry, holds


def _genus3d_entry(g, labels, cid) -> tuple[dict, bool]:
    """Surface census and Euler genus from row `cid` of the image's surface
    table if clean; else, or if the loop will stop at an invalid component,
    from the component's own surface, whose errors name the first bad cell."""
    census2d = labels.table.census(cid)
    if labels.table.valid.all() and labels.surface.clean[cid]:
        census = labels.surface.census(cid)
        g_formula = solid3d.genus_by_formula(census)
        g_euler = labels.surface.euler_genus(cid)
    else:
        ctx = corners.ComponentContext.of_label(labels, cid)
        sc = solid3d.extract_surface(solid3d.double_component(g, ctx))
        census = solid3d.classify_surface_points(sc)
        g_formula = solid3d.genus_by_formula(census)
        g_euler = solid3d.euler_genus_oracle(sc)
    checks = {
        "m6_zero": census.m6 == 0,
        "m3_eq_2c2": census.m3 == 2 * census2d.c2,
        "m5_eq_2c4": census.m5 == 2 * census2d.c4,
        "genus_eq_holes": g_formula == holes.holes_by_formula(census2d),
        "genus_eq_euler": g_formula == g_euler,
    }
    if g_formula == 0:
        checks["simply_connected_identity"] = solid3d.check_simply_connected_identity(census)
    entry = {
        "component_id": cid,
        "m3": census.m3,
        "m4": census.m4,
        "m5": census.m5,
        "m6": census.m6,
        "genus_formula": g_formula,
        "euler_genus_oracle": g_euler,
        "checks": checks,
    }
    return entry, all(checks.values())


def cmd_curves(args) -> int:
    # A valid component's contours partition its boundary (see
    # `corners.ComponentTable`), so its entry does not fail.
    return _each_valid_component(args, _curves_entry, check_first=True)


def cmd_genus3d(args) -> int:
    return _each_valid_component(args, _genus3d_entry)


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
    """Holes of a single-component image by complement labeling.

    Returns (holes, pixel_touches). The touch count is a model, not a
    measurement: it adds up the array passes performed, 5 per cell per
    4-connected labeling (the cell plus the structuring element's reads)
    and 1 per cell per other pass over a component's crop (cutting it out,
    copying it into its background ring, summing its area, negating it).
    """
    labels = label_components(g, "foreground")
    touches = 5 * g.cells.size
    total = 0
    for cid in range(1, labels.component_count + 1):
        ctx = corners.ComponentContext.of_label(labels, cid)
        total += ctx.complement[1] - 1  # the crop's own labeling, which the model counts
        touches += (4 + 5) * ctx.mask.size
    return total, touches


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
