"""Binary image grids and lattice adjacency.

Coordinates are (row, col) with row 0 at the top; a Cartesian (x, y)
point maps to (col, row) here. Grids are immutable after construction and
all operations on them are pure functions.
"""

from __future__ import annotations

import itertools
import re
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
        return self.in_bounds(p) and bool(self.cells[tuple(p)])

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


# Deletes the two bits from a str: what is left are its illegal characters.
_DROP_BITS = str.maketrans("", "", "01")


def _bits(chunks: list[str], shape: tuple[int, int]) -> BinaryGrid:
    """Grid of the '0'/'1' strings `chunks`, joined in row-major order."""
    codes = np.frombuffer("".join(chunks).encode("ascii"), dtype=np.uint8)
    return BinaryGrid((codes == ord("1")).reshape(shape))


def _canonical_ascii01(data) -> BinaryGrid | None:
    """The grid of `data` if it is H >= 1 rows of W >= 1 bytes '0'/'1', each
    ending in '\\n', and nothing else (`to_ascii01`'s form); else None."""
    try:  # TypeError: a str or no buffer; BufferError: a buffer with gaps; ValueError: ragged
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, bytes(data).find(b"\n") + 1)
    except (TypeError, BufferError, ValueError):
        return None
    bits = rows[:, :-1]
    ok = bits.size and (rows[:, -1] == ord("\n")).all() and bits.min() >= ord("0") and bits.max() <= ord("1")
    return BinaryGrid(bits == ord("1")) if ok else None


# `to_pbm_p1`'s header; dimensions of 19 digits or more fit no buffer.
_PBM_HEAD = re.compile(rb"P1\n([1-9][0-9]{0,17}) ([1-9][0-9]{0,17})\n")


def _canonical_pbm_p1(data) -> BinaryGrid | None:
    """The grid of `data` if it is `to_pbm_p1`'s form, `_PBM_HEAD` and then
    H rows of W bytes '0'/'1', one space between each two and '\\n' after
    the last, and nothing else; else None."""
    try:  # as in `_canonical_ascii01`
        raw = np.frombuffer(data, dtype=np.uint8)
    except (TypeError, BufferError, ValueError):
        return None
    head = _PBM_HEAD.match(bytes(raw[:48]))
    if head is None or raw.size - head.end() != 2 * int(head[1]) * int(head[2]):
        return None
    rows = raw[head.end() :].reshape(int(head[2]), -1)
    bits = rows[:, ::2]
    ok = (rows[:, 1:-1:2] == ord(" ")).all() and (rows[:, -1] == ord("\n")).all()
    return BinaryGrid(bits == ord("1")) if ok and bits.min() >= ord("0") and bits.max() <= ord("1") else None


def _parse_ascii01(text: str) -> BinaryGrid:
    rows = [row for row in map(str.strip, text.splitlines()) if row]
    if not rows:
        raise ParseError("empty ascii01 input")
    width = len(rows[0])
    for i, row in enumerate(rows, 1):
        illegal = row.translate(_DROP_BITS)
        if illegal:
            raise ParseError(
                f"illegal character {illegal[0]!r}", line=i, offset=row.index(illegal[0])
            )
        if len(row) != width:
            raise ParseError(f"ragged row: expected width {width}, got {len(row)}", line=i)
    return _bits(rows, (len(rows), width))


def _parse_pbm_p1(text: str) -> BinaryGrid:
    # (line number, tokens) of every line, comments cut off.
    lines = enumerate((ln.partition("#")[0].split() for ln in text.splitlines()), 1)
    header = []  # the first three tokens, with their line numbers
    rest = []  # the tokens after them on their line
    for lineno, tokens in lines:
        need = 3 - len(header)
        header += [(tok, lineno) for tok in tokens[:need]]
        if len(header) == 3:
            rest = [(lineno, tokens[need:])]
            break
    if not header:
        raise ParseError("empty PBM input")
    magic, lineno = header[0]
    if magic != "P1":
        raise ParseError(f"bad magic {magic!r}, expected 'P1'", line=lineno)
    dims = []
    for tok, lineno in header[1:]:
        if not tok.isdigit():
            raise ParseError(f"bad dimension token {tok!r}", line=lineno)
        try:
            dims.append(int(tok))
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"dimension token of {len(tok)} digits too long", line=lineno
            ) from None
    if len(dims) != 2:
        raise ParseError("missing width/height in PBM header")
    width, height = dims
    if width < 1 or height < 1:
        raise ParseError(f"illegal dimensions {width}x{height}")
    size = width * height

    # The raster: every later token, packed or not, read a line at a time.
    chunks, count = [], 0
    for lineno, tokens in itertools.chain(rest, lines):
        chunk = "".join(tokens)
        count += len(chunk)
        if count > size or chunk.translate(_DROP_BITS):
            # Re-read the line token by token: an overflow is reported on
            # the token that overflows, after that token's illegal characters.
            count -= len(chunk)
            for tok in tokens:
                illegal = tok.translate(_DROP_BITS)
                if illegal:
                    raise ParseError(f"illegal raster character {illegal[0]!r}", line=lineno)
                count += len(tok)
                if count > size:
                    raise ParseError("more raster bits than width*height", line=lineno)
        chunks.append(chunk)
    if count != size:
        try:
            expected = str(size)
        except ValueError:  # more digits than str() converts
            expected = f"{width}*{height}"
        raise ParseError(f"raster has {count} bits, expected {expected}")
    return _bits(chunks, (height, width))


_FORMATS = {"ascii01": ("ascii01", _parse_ascii01), "pbm_p1": ("PBM P1", _parse_pbm_p1)}
# The whole-array reader of each format's canonical form, tried first.
_CANONICAL = {"ascii01": _canonical_ascii01, "pbm_p1": _canonical_pbm_p1}


def parse_image(data: bytes | bytearray | memoryview | str, fmt: str = "ascii01") -> BinaryGrid:
    """Parse a binary image.

    fmt='pbm_p1': plain netpbm bitmap, bit 1 = black = foreground.
    fmt='ascii01': lines of '0'/'1' characters of equal length.
    Either is read in whole-array passes if in the form that `to_pbm_p1`
    or `to_ascii01` writes, else a line at a time.
    The README's "Input formats" gives the exact rules and error positions.
    Any bytes-like object (bytearray, memoryview, ...) is read as bytes.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if (g := _CANONICAL[fmt](data)) is not None:
        return g
    name, parse = _FORMATS[fmt]
    try:
        if not isinstance(data, str):
            data = str(data, "ascii")  # TypeError if it is not bytes-like
        elif fmt == "pbm_p1":
            data.encode("ascii")
    except UnicodeError as exc:
        raise ParseError(f"{name} must be ASCII: {exc}") from None
    return parse(data)


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
