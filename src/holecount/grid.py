"""Binary image grids and lattice adjacency.

Coordinates are (row, col) with row 0 at the top; a Cartesian (x, y)
point maps to (col, row) here. Grids are immutable after construction and
all operations on them are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBoundsError, ParseError

Point2 = tuple[int, int]

# Direct (4-) and indirect (8-) neighbor offsets, row-major scan order.
DIRECT_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, 0))
DIAGONAL_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
INDIRECT_OFFSETS = tuple(sorted(DIRECT_OFFSETS + DIAGONAL_OFFSETS))


@dataclass(frozen=True)
class BinaryGrid:
    """2D lattice of foreground/background cells.

    `cells` is a read-only bool array of shape (height, width); True is
    foreground.
    """

    cells: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.cells, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"grid shape must be 2D and nonempty, got {arr.shape}")

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def in_bounds(self, p: Point2) -> bool:
        r, c = p
        return 0 <= r < self.height and 0 <= c < self.width

    def is_foreground(self, p: Point2) -> bool:
        """Out-of-bounds positions count as background."""
        r, c = p
        if not (0 <= r < self.height and 0 <= c < self.width):
            return False
        return bool(self.cells[r, c])

    def foreground_points(self) -> frozenset[Point2]:
        return frozenset((int(r), int(c)) for r, c in np.argwhere(self.cells))

    def foreground_count(self) -> int:
        return int(self.cells.sum())

    def __eq__(self, other):
        if not isinstance(other, BinaryGrid):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            (self.cells == other.cells).all()
        )

    def __hash__(self):
        return hash((self.cells.shape, self.cells.tobytes()))


def grid_from_rows(rows) -> BinaryGrid:
    """Build a grid from an iterable of 0/1 rows (lists, strings of 0/1, ...)."""
    data = [[int(v) for v in row] for row in rows]
    return BinaryGrid(np.array(data, dtype=bool))


def _parse_ascii01(text: str) -> BinaryGrid:
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError("empty ascii01 input")
    rows = []
    width = None
    for i, ln in enumerate(lines):
        ln = ln.strip()
        for j, ch in enumerate(ln):
            if ch not in "01":
                raise ParseError(f"illegal character {ch!r}", line=i + 1, offset=j)
        if width is None:
            width = len(ln)
        elif len(ln) != width:
            raise ParseError(
                f"ragged row: expected width {width}, got {len(ln)}", line=i + 1
            )
        rows.append([ch == "1" for ch in ln])
    return BinaryGrid(np.array(rows, dtype=bool))


def _pbm_tokens(text: str):
    """Yield whitespace-separated PBM tokens with '#' comments stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def _parse_pbm_p1(data: bytes) -> BinaryGrid:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"PBM P1 must be ASCII: {exc}") from None
    toks = _pbm_tokens(text)
    try:
        magic, lineno = next(toks)
    except StopIteration:
        raise ParseError("empty PBM input") from None
    if magic != "P1":
        raise ParseError(f"bad magic {magic!r}, expected 'P1'", line=lineno)
    dims = []
    for tok, lineno in toks:
        if not tok.isdigit():
            raise ParseError(f"bad dimension token {tok!r}", line=lineno)
        dims.append(int(tok))
        if len(dims) == 2:
            break
    if len(dims) != 2:
        raise ParseError("missing width/height in PBM header")
    width, height = dims
    if width < 1 or height < 1:
        raise ParseError(f"illegal dimensions {width}x{height}")
    bits = []
    for tok, lineno in toks:
        # Plain PBM allows packed digit runs like "0110".
        for ch in tok:
            if ch not in "01":
                raise ParseError(f"illegal raster character {ch!r}", line=lineno)
            bits.append(ch == "1")
        if len(bits) > width * height:
            raise ParseError("more raster bits than width*height", line=lineno)
    if len(bits) != width * height:
        raise ParseError(
            f"raster has {len(bits)} bits, expected {width * height}"
        )
    arr = np.array(bits, dtype=bool).reshape(height, width)
    return BinaryGrid(arr)


def parse_image(data: bytes | str, fmt: str = "ascii01") -> BinaryGrid:
    """Parse a binary image.

    fmt='pbm_p1': plain netpbm bitmap, bit 1 = black = foreground.
    fmt='ascii01': lines of '0'/'1' characters of equal length.
    """
    if fmt == "pbm_p1":
        if isinstance(data, str):
            data = data.encode("ascii")
        return _parse_pbm_p1(data)
    if fmt == "ascii01":
        if isinstance(data, bytes):
            try:
                data = data.decode("ascii")
            except UnicodeDecodeError as exc:
                raise ParseError(f"ascii01 must be ASCII: {exc}") from None
        return _parse_ascii01(data)
    raise ValueError(f"unknown format {fmt!r}")


def to_ascii01(g: BinaryGrid) -> str:
    return "\n".join(
        "".join("1" if v else "0" for v in row) for row in g.cells
    ) + "\n"


def to_pbm_p1(g: BinaryGrid) -> str:
    body = "\n".join(" ".join("1" if v else "0" for v in row) for row in g.cells)
    return f"P1\n{g.width} {g.height}\n{body}\n"


def pad_background(g: BinaryGrid, margin: int) -> BinaryGrid:
    """Surround the grid with `margin` background cells on every side."""
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    return BinaryGrid(np.pad(g.cells, margin, constant_values=False))


def neighbors(g: BinaryGrid, p: Point2, mode: str = "direct") -> frozenset[Point2]:
    """In-bounds direct (4-) or indirect (8-) neighbors of p."""
    if not g.in_bounds(p):
        raise OutOfBoundsError(f"{p} outside {g.height}x{g.width} grid")
    if mode == "direct":
        offsets = DIRECT_OFFSETS
    elif mode == "indirect":
        offsets = INDIRECT_OFFSETS
    else:
        raise ValueError(f"unknown mode {mode!r}")
    r, c = p
    return frozenset(
        (r + dr, c + dc)
        for dr, dc in offsets
        if g.in_bounds((r + dr, c + dc))
    )
