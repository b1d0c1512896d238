"""The parsers and writers of `grid` (and `cli.render_annotations`)
against character-loop references.

The references below are the package's earlier parsers and writers, kept
here as the test oracle: they test one character at a time and build one
Python object per pixel. For every input both parsers return equal grids
or raise `ParseError` with the same text, line and offset; the writers
return equal strings. Canonical ascii01 and PBM P1 bytes take
`parse_image`'s whole-array paths and all other input its line parsers:
both are held to the same references.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holecount as hc
from holecount import cli, grid
from holecount.errors import ParseError


def ref_parse_ascii01(text: str) -> hc.BinaryGrid:
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
    return hc.BinaryGrid(np.array(rows, dtype=bool))


def ref_pbm_tokens(text: str):
    """Yield whitespace-separated PBM tokens with '#' comments stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def ref_parse_pbm_p1(data: bytes) -> hc.BinaryGrid:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"PBM P1 must be ASCII: {exc}") from None
    toks = ref_pbm_tokens(text)
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
    return hc.BinaryGrid(arr)


def ref_parse_image(data, fmt="ascii01"):
    if fmt == "pbm_p1":
        if isinstance(data, str):
            data = data.encode("ascii")
        return ref_parse_pbm_p1(bytes(data))  # any bytes-like object as bytes
    if fmt == "ascii01":
        if not isinstance(data, str):
            try:
                data = bytes(data).decode("ascii")
            except UnicodeDecodeError as exc:
                raise ParseError(f"ascii01 must be ASCII: {exc}") from None
        return ref_parse_ascii01(data)
    raise ValueError(f"unknown format {fmt!r}")


def ref_to_ascii01(g):
    return "\n".join(
        "".join("1" if v else "0" for v in row) for row in g.cells
    ) + "\n"


def ref_to_pbm_p1(g):
    body = "\n".join(" ".join("1" if v else "0" for v in row) for row in g.cells)
    return f"P1\n{g.width} {g.height}\n{body}\n"


def ref_render_annotations(g, reports):
    canvas = [["1" if v else "0" for v in row] for row in g.cells.tolist()]
    for rep in reports:
        for (r, c), k in rep.classification.classes.items():
            if k in (2, 4):
                canvas[r][c] = str(k)
    return "\n".join("".join(row) for row in canvas)


def outcome(parse, data, fmt):
    try:
        g = parse(data, fmt)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.offset)
    return ("grid", g.cells.shape, g.cells.tobytes())


def assert_same(data, fmt):
    try:
        expected = outcome(ref_parse_image, data, fmt)
    except UnicodeEncodeError as exc:
        # The reference let this escape for a non-ASCII str read as PBM.
        expected = ("error", f"PBM P1 must be ASCII: {exc}", None, None)
    assert outcome(hc.parse_image, data, fmt) == expected


LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
NON_ASCII = ["\xe9", "\x80", "\xff", "\u2003", "\U0001f600", "\ud800"]
ALPHABET = (
    ["0", "1", "0", "1", "01", "10"] + LINE_BREAKS + SPACES + ["#", "P1", "P", "2", "9", "x"]
    + NON_ASCII
)

fragments = st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join)
ascii_fragments = fragments.map(lambda s: s.encode("ascii", "ignore"))
small_grids = arrays(dtype=bool, shape=st.tuples(st.integers(1, 12), st.integers(1, 12)))

# `to_ascii01`'s form, which `parse_image` reads in whole-array passes, and
# one fault away from it, read a line at a time.
NEAR_CANONICAL = {
    "no-final-newline": lambda t: t[:-1],
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "trailing-space": lambda t: t[:-1] + " \n",
    "blank-line": lambda t: t.replace("\n", "\n\n", 1),
    "illegal-2": lambda t: "2" + t[1:],
    "illegal-x": lambda t: t[:-2] + "x\n",
    "short-row": lambda t: t[1:],
    "leading-newline": lambda t: "\n" + t,
}
# Likewise for `to_pbm_p1`'s form (grids at least 2 wide, so that every
# variant differs from it): one fault away from it, read a line at a time.
PBM_NEAR_CANONICAL = {
    "no-final-newline": lambda t: t[:-1],
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "header-on-one-line": lambda t: t.replace("\n", " ", 1),
    "comment": lambda t: t.replace("\n", " # c\n", 1),
    "leading-zero": lambda t: t.replace("\n", "\n0", 1),
    "double-space": lambda t: t.replace(" ", "  ", 1),
    "tab": lambda t: t[::-1].replace(" ", "\t", 1)[::-1],
    "packed": lambda t: t[::-1].replace(" ", "", 1)[::-1],
    "trailing-space": lambda t: t[:-1] + " \n",
    "blank-line": lambda t: t + "\n",
    "illegal-2": lambda t: t[:-2] + "2\n",
    "missing-bit": lambda t: t[:-2] + "\n",
    "extra-bit": lambda t: t + "1\n",
    "p2": lambda t: "P2" + t[2:],
    "zero-height": lambda t: t[: t.index(" ") + 1] + "0" + t[t.index("\n", 3) :],
}
BYTES_LIKE = [bytes, bytearray, memoryview]


def to_bytes(text):
    return text.encode("utf-8", "surrogatepass")


@st.composite
def mutated(draw, text):
    """`text` with up to three characters inserted, replaced or deleted."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "replace":
            text = text[:i] + ch + text[i + 1 :]
        else:
            text = text[:i] + text[i + 1 :]
    return text


@st.composite
def ascii01_texts(draw):
    """Rows of bits, mostly of one width, padded with whitespace and
    blank lines and joined by any line break."""
    width = draw(st.integers(1, 6))
    row = st.text("01", min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row, st.text("01", max_size=7)), min_size=1, max_size=5))
    pad = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
    out = []
    for row in rows:
        out.append(draw(pad) + row + draw(pad))
        out.append(draw(st.sampled_from(LINE_BREAKS)))
        if draw(st.booleans()):
            out.append(draw(pad) + draw(st.sampled_from(LINE_BREAKS)))
    return draw(mutated("".join(out)))


@st.composite
def renderings(draw):
    """A grid's `to_ascii01` rendering, often near-canonical, as bytes,
    bytearray or memoryview."""
    text = hc.to_ascii01(hc.BinaryGrid(draw(small_grids)))
    variant = draw(st.sampled_from([None, None, None, *NEAR_CANONICAL]))
    if variant:
        text = NEAR_CANONICAL[variant](text)
    return draw(st.sampled_from(BYTES_LIKE))(text.encode("ascii"))


@st.composite
def pbm_renderings(draw):
    """A grid's `to_pbm_p1` rendering, often near-canonical, as bytes,
    bytearray or memoryview."""
    text = hc.to_pbm_p1(hc.BinaryGrid(draw(small_grids)))
    variant = draw(st.sampled_from([None, None, None, *PBM_NEAR_CANONICAL]))
    if variant:
        text = PBM_NEAR_CANONICAL[variant](text)
    return draw(st.sampled_from(BYTES_LIKE))(text.encode("ascii"))


@st.composite
def pbm_texts(draw):
    """A P1 header and raster with comments, packed runs and any line
    break; the dimensions do not always fit the raster."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = h * w + draw(st.sampled_from([0, 0, 0, -1, 1, 3]))
    bits = draw(st.text("01", min_size=n, max_size=n))
    sep = st.sampled_from([" ", "\t", "  "] + [b for b in LINE_BREAKS if b.isascii()])
    comment = st.sampled_from(["", "", "# c\n", "#1 0\r\n", "#"])
    toks = ["P1", str(w), str(h)]
    i = 0
    while i < len(bits):
        k = draw(st.integers(1, 4))
        toks.append(bits[i : i + k])
        i += k
    out = []
    for tok in toks:
        out.append(tok + draw(sep) + draw(comment))
    return draw(mutated("".join(out)))


@pytest.mark.parametrize(
    "text",
    [
        "01\r\n10\r\n",
        "01\r10\x0b11\x0c00\x1c01\x1d10\x1e11",
        "01\x8510\u202811\u202900",
        "\n\n  01  \n\t\n10\x1f\n\n",
        "01\n\n0x\n",  # illegal character on the 2nd non-blank line
        "  0 1\n",  # inner whitespace is illegal; offset inside the stripped line
        "01\n011\n0x1\n",  # ragged row before a later illegal character
        "01\n0x1\n",  # illegal character and ragged on one line
        "01\n\u20020\u2003\n",
        "0\xe9\n",
        "\x1f\t\u3000\n",
        "",
        "0\n",  # canonical: 1x1, 1xW, Hx1 and HxW
        "0110\n",
        "1\n0\n1\n",
        "01\n10\n11\n",
        *(variant("01\n10\n11\n") for variant in NEAR_CANONICAL.values()),
        "01\n10\n110",  # a row too long by the final '\n' it lacks
        "\n\n",
    ],
)
def test_ascii01_matches_reference_on_examples(text):
    assert_same(text, "ascii01")
    if text.isascii():
        for wrap in BYTES_LIKE:
            assert_same(wrap(text.encode("ascii")), "ascii01")


@pytest.mark.parametrize(
    "data",
    [
        b"P1\n# a comment\n2 2 # another\n10\n01\n",
        b"P1\r\n2 2\r\n1 0\r\n0 1 1\r\n",  # more raster bits, on line 4
        b"P1 2 2 1001",
        b"P1 2 2 10 011 0",  # the token that overflows is reported
        b"P1 2 2 10 0x1",  # illegal character before overflow in one token
        b"P1\x0b2\x1c2\x1e#x\n1\x0c0\r0\n1",
        b"P1\n2\n1 0",
        b"P1\n2 x\n",
        b"P1 0 3",
        b"P2 2 2 1 0 0 1",
        b"#P1\n",
        b"P1 2 2 1 0 0 \x80",
        b"P1 1 1 1",
        b"P1\n1 1\n1\n",  # canonical: 1x1, 1xW, Hx1 and HxW
        b"P1\n3 1\n0 1 1\n",
        b"P1\n1 3\n1\n0\n1\n",
        b"P1\n2 3\n0 1\n1 0\n1 1\n",
        *(variant("P1\n2 3\n0 1\n1 0\n1 1\n").encode("ascii") for variant in PBM_NEAR_CANONICAL.values()),
        b"P1\n2 1\n0 1\n\x00",  # a byte after the raster
        b"P1\n2 1\n0 1 \n",  # rows of the right length, a space at the end
        b"P1\n2 2\n0 11 0\n",
    ],
)
def test_pbm_matches_reference_on_examples(data):
    assert_same(data, "pbm_p1")
    assert_same(data.decode("latin-1"), "pbm_p1")


@settings(max_examples=250, deadline=None)
@given(st.one_of(ascii01_texts(), fragments, st.text(max_size=30)))
@example("01\r\n\r\n10\r\n")
def test_ascii01_str_matches_reference(text):
    assert_same(text, "ascii01")


WIDE = hc.to_ascii01(hc.BinaryGrid(np.random.default_rng(5).random((3, 5000)) < 0.5))


@settings(max_examples=200, deadline=None)
@given(st.one_of(ascii01_texts().map(to_bytes), ascii_fragments, st.binary(max_size=30), renderings()))
@example(WIDE.encode("ascii"))
@example(memoryview(WIDE.encode("ascii")))
@example(bytearray(NEAR_CANONICAL["crlf"](WIDE).encode("ascii")))
@example(NEAR_CANONICAL["illegal-x"](WIDE).encode("ascii"))
def test_ascii01_bytes_matches_reference(data):
    assert_same(data, "ascii01")


@pytest.mark.parametrize("variant", [None, *NEAR_CANONICAL])
@pytest.mark.parametrize("text", ["01\n10\n11\n", WIDE], ids=["3x2", "3x5000"])
def test_only_near_canonical_ascii01_reaches_the_line_parser(monkeypatch, text, variant):
    """Canonical bytes, as any bytes-like object, never reach
    `_parse_ascii01`; each near-canonical variant reaches it once."""
    calls = []
    name, parse = grid._FORMATS["ascii01"]
    monkeypatch.setitem(grid._FORMATS, "ascii01", (name, lambda t: calls.append(t) or parse(t)))
    if variant:
        text = NEAR_CANONICAL[variant](text)
    for wrap in BYTES_LIKE:
        calls.clear()
        assert_same(wrap(text.encode("ascii")), "ascii01")
        assert len(calls) == (1 if variant else 0)


@settings(max_examples=250, deadline=None)
@given(st.one_of(pbm_texts().map(to_bytes), ascii_fragments, st.binary(max_size=30)))
def test_pbm_bytes_matches_reference(data):
    assert_same(data, "pbm_p1")


@settings(max_examples=200, deadline=None)
@given(st.one_of(pbm_texts(), fragments, st.text(max_size=30)))
def test_pbm_str_matches_reference(text):
    assert_same(text, "pbm_p1")


# A seeded 300x300 raster: the strategies above draw only a few rows, so
# these cases plant one fault after many clean lines.
ROWS = [
    "".join(row) for row in np.where(np.random.default_rng(6).random((300, 300)) < 0.5, "1", "0")
]


def with_row(i, row):
    return ROWS[:i] + [row] + ROWS[i + 1 :]


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(ROWS, id="clean"),
        pytest.param(with_row(290, ROWS[290][:150] + "x" + ROWS[290][151:]), id="illegal"),
        pytest.param(with_row(290, " " + ROWS[290][:-1] + "\t"), id="ragged"),
        pytest.param(with_row(290, ROWS[290][:150] + " " + ROWS[290][150:]), id="inner-space"),
    ],
)
def test_ascii01_matches_reference_at_scale(rows):
    text = "\n".join(rows) + "\n"
    assert_same(text, "ascii01")
    assert_same(text.encode("ascii"), "ascii01")


@pytest.mark.parametrize("spaced", [False, True], ids=["packed", "spaced"])
@pytest.mark.parametrize(
    "rows, tail",
    [
        pytest.param(ROWS, "", id="clean"),
        pytest.param(with_row(290, ROWS[290][:150] + "2" + ROWS[290][151:]), "", id="illegal"),
        pytest.param(ROWS, " 1 01", id="overflow-mid-line"),
        pytest.param(ROWS, " 1 x", id="overflow-then-illegal"),
        pytest.param(ROWS, " 1x", id="illegal-and-overflow-in-one-token"),
        pytest.param(ROWS[:-1] + [ROWS[-1][:-3]], "", id="short-raster"),
    ],
)
def test_pbm_matches_reference_at_scale(rows, tail, spaced):
    sep = " " if spaced else ""
    text = "P1\n300 300\n" + "\n".join(sep.join(row) for row in rows) + tail + "\n"
    assert_same(text.encode("ascii"), "pbm_p1")
    assert_same(text, "pbm_p1")


WIDE_PBM = hc.to_pbm_p1(hc.BinaryGrid(np.random.default_rng(5).random((3, 2000)) < 0.5))


@settings(max_examples=200, deadline=None)
@given(pbm_renderings())
@example(WIDE_PBM.encode("ascii"))
@example(memoryview(PBM_NEAR_CANONICAL["crlf"](WIDE_PBM).encode("ascii")))
def test_pbm_renderings_match_reference(data):
    assert_same(data, "pbm_p1")


@pytest.mark.parametrize("variant", [None, *PBM_NEAR_CANONICAL])
@pytest.mark.parametrize("text", ["P1\n2 3\n0 1\n1 0\n1 1\n", WIDE_PBM], ids=["3x2", "3x2000"])
def test_only_near_canonical_pbm_reaches_the_line_parser(monkeypatch, text, variant):
    """Canonical PBM P1 bytes, as any bytes-like object, never reach
    `_parse_pbm_p1`; each near-canonical variant reaches it once."""
    calls = []
    name, parse = grid._FORMATS["pbm_p1"]
    monkeypatch.setitem(grid._FORMATS, "pbm_p1", (name, lambda t: calls.append(t) or parse(t)))
    if variant:
        text = PBM_NEAR_CANONICAL[variant](text)
    for wrap in BYTES_LIKE:
        calls.clear()
        assert_same(wrap(text.encode("ascii")), "pbm_p1")
        assert len(calls) == (1 if variant else 0)


@pytest.mark.parametrize(
    "data",
    [
        b"P1\n" + b"1" * 5000 + b" 1\n1",
        b"P1\n" + b"9" * 3000 + b" " + b"9" * 3000 + b"\n1",
    ],
)
def test_pbm_huge_dimensions_raise_parse_error(data):
    # The reference lets int()/str() overflow a ValueError out of these.
    with pytest.raises(ValueError):
        ref_parse_image(data, "pbm_p1")
    with pytest.raises(ParseError):
        hc.parse_image(data, "pbm_p1")


@settings(max_examples=100, deadline=None)
@given(small_grids)
def test_writers_match_reference(cells):
    g = hc.BinaryGrid(cells)
    assert hc.to_ascii01(g) == ref_to_ascii01(g)
    assert hc.to_pbm_p1(g) == ref_to_pbm_p1(g)
    reports = hc.analyze_image(g)
    assert cli.render_annotations(g, reports) == ref_render_annotations(g, reports)
