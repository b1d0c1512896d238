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


# The characters str.isspace() and str.strip() take as whitespace, and
# those of them that str.splitlines() ends a line at.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"

# Character classes, in an order where `kind <= _SPACE` is whitespace and
# `kind >= _ZERO` a bit.
_BREAK, _SPACE, _OTHER, _ZERO, _ONE = range(5)
_KIND = np.full(ord(max(_WHITESPACE)) + 2, _OTHER, dtype=np.uint8)
_KIND[[ord(ch) for ch in _WHITESPACE]] = _SPACE
_KIND[[ord(ch) for ch in _LINE_BREAKS]] = _BREAK
_KIND[[ord("0"), ord("1")]] = _ZERO, _ONE


def _kinds(codes: np.ndarray) -> np.ndarray:
    """Class of each code point; the table's last entry, _OTHER, stands
    for every code point past it."""
    return _KIND.take(codes, mode="clip")


def _ascii_codes(data: bytes, fmt: str) -> np.ndarray:
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{fmt} must be ASCII: {exc}") from None
    return np.frombuffer(data, dtype=np.uint8)


def _parse_ascii01(codes: np.ndarray) -> BinaryGrid:
    """Grid of ascii01 text given as an array of its code points."""
    kind = _kinds(codes)
    ink = np.flatnonzero(kind >= _OTHER)
    if not ink.size:
        raise ParseError("empty ascii01 input")
    # A line's stripped text runs from its first to its last non-whitespace
    # character; lines with none are dropped and not numbered. A stripped
    # line starts after a gap in `ink` that holds a line break.
    breaks = np.flatnonzero(kind == _BREAK)
    gap = np.flatnonzero(np.diff(ink) > 1) + 1
    gap = gap[np.searchsorted(breaks, ink[gap - 1]) < np.searchsorted(breaks, ink[gap])]
    starts = ink[np.append(0, gap)]
    widths = ink[np.append(gap, ink.size) - 1] + 1 - starts
    # Illegal: any non-bit inside a stripped line.
    bad = np.flatnonzero((kind == _SPACE) | (kind == _OTHER))
    bad_line = np.searchsorted(starts, bad, side="right") - 1
    inside = (bad_line >= 0) & (bad < starts[bad_line] + widths[bad_line])
    bad, bad_line = bad[inside], bad_line[inside]
    ragged = np.flatnonzero(widths != widths[0])
    # The first line at fault is reported, an illegal character before a
    # wrong width.
    if bad.size and not (ragged.size and ragged[0] < bad_line[0]):
        i = int(bad_line[0])
        raise ParseError(
            f"illegal character {chr(codes[bad[0]])!r}",
            line=i + 1,
            offset=int(bad[0] - starts[i]),
        )
    if ragged.size:
        i = int(ragged[0])
        raise ParseError(
            f"ragged row: expected width {widths[0]}, got {widths[i]}", line=i + 1
        )
    return BinaryGrid((kind[ink] == _ONE).reshape(starts.size, int(widths[0])))


def _parse_pbm_p1(data: bytes) -> BinaryGrid:
    codes = _ascii_codes(data, "PBM P1")
    kind = _kinds(codes)
    # Tokens are the runs of non-whitespace outside comments; a comment
    # runs from a '#' to the end of its line.
    ink = np.flatnonzero(kind >= _OTHER)
    breaks = np.flatnonzero(kind == _BREAK)
    hashes = np.flatnonzero(codes == ord("#"))
    comment_ends = np.append(breaks, codes.size)[np.searchsorted(breaks, hashes)]
    # The comment of the last '#' at or before each character, if any
    # (index -1 picks the appended -1: no '#' before it).
    last_hash = np.searchsorted(hashes, ink, side="right") - 1
    chars = ink[ink >= np.append(comment_ends, -1)[last_hash]]
    if not chars.size:
        raise ParseError("empty PBM input")
    first = np.append(0, np.flatnonzero(np.diff(chars) > 1) + 1)
    last = np.append(first[1:], chars.size) - 1

    def token(k: int) -> str:
        return data[chars[first[k]] : chars[last[k]] + 1].decode("ascii")

    def line(k: int) -> int:
        """Line of token k, from 1, as str.splitlines() counts: "\\r\\n"
        ends one line."""
        start = chars[first[k]]
        return 1 + int(np.searchsorted(breaks, start)) - data.count(b"\r\n", 0, start)

    if token(0) != "P1":
        raise ParseError(f"bad magic {token(0)!r}, expected 'P1'", line=line(0))
    dims = []
    for k in range(1, min(3, first.size)):
        if not token(k).isdigit():
            raise ParseError(f"bad dimension token {token(k)!r}", line=line(k))
        try:
            dims.append(int(token(k)))
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"dimension token of {len(token(k))} digits too long", line=line(k)
            ) from None
    if len(dims) != 2:
        raise ParseError("missing width/height in PBM header")
    width, height = dims
    if width < 1 or height < 1:
        raise ParseError(f"illegal dimensions {width}x{height}")
    size = width * height

    # The raster: every character of token 3 on, packed or not.
    raster_start = first[3] if first.size > 3 else chars.size
    raster = chars[raster_start:]
    read = last[3:] + 1 - raster_start  # bits read up to each raster token
    over = np.searchsorted(read, size, side="right") if size < raster.size else read.size
    bits = kind[raster]
    bad = np.flatnonzero(bits < _ZERO)[:1]
    if bad.size:
        k = np.searchsorted(read, bad[0], side="right")
        if k <= over:
            raise ParseError(
                f"illegal raster character {chr(codes[raster[bad[0]]])!r}",
                line=line(3 + k),
            )
    if over < read.size:
        raise ParseError("more raster bits than width*height", line=line(3 + over))
    if raster.size != size:
        try:
            expected = str(size)
        except ValueError:  # more digits than str() converts
            expected = f"{width}*{height}"
        raise ParseError(f"raster has {raster.size} bits, expected {expected}")
    return BinaryGrid((bits == _ONE).reshape(height, width))


def parse_image(data: bytes | bytearray | memoryview | str, fmt: str = "ascii01") -> BinaryGrid:
    """Parse a binary image.

    fmt='pbm_p1': plain netpbm bitmap, bit 1 = black = foreground.
    fmt='ascii01': lines of '0'/'1' characters of equal length.
    The README's "Input formats" gives the exact rules and error positions.
    Any bytes-like object (bytearray, memoryview, ...) is read as bytes.
    """
    if not isinstance(data, (bytes, str)):
        data = memoryview(data).tobytes()  # TypeError if it is not bytes-like
    if fmt == "pbm_p1":
        if isinstance(data, str):
            try:
                data = data.encode("ascii")
            except UnicodeEncodeError as exc:
                raise ParseError(f"PBM P1 must be ASCII: {exc}") from None
        return _parse_pbm_p1(data)
    if fmt == "ascii01":
        if isinstance(data, bytes):
            codes = _ascii_codes(data, "ascii01")
        else:
            codes = np.frombuffer(data.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        return _parse_ascii01(codes)
    raise ValueError(f"unknown format {fmt!r}")


def text_rows(chars: np.ndarray) -> str:
    """A 2D array of ASCII codes as text, each row a line ending in '\\n'."""
    out = np.full((chars.shape[0], chars.shape[1] + 1), ord("\n"), dtype=np.uint8)
    out[:, :-1] = chars
    return out.tobytes().decode("ascii")


def to_ascii01(g: BinaryGrid) -> str:
    return text_rows(g.cells.view(np.uint8) + ord("0"))


def to_pbm_p1(g: BinaryGrid) -> str:
    chars = np.full((g.height, 2 * g.width - 1), ord(" "), dtype=np.uint8)
    chars[:, ::2] = g.cells.view(np.uint8) + ord("0")
    return f"P1\n{g.width} {g.height}\n{text_rows(chars)}"


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
