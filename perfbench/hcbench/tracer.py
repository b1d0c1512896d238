"""Outside-in span tracer for the holecount package.

While installed, the tracer replaces each traced public function with a
wrapper that records a span: request id, name, start, end and the index of
the enclosing span. A function is reachable under several names, because
modules import each other's functions (`from .corners import
classify_corners` in `holes` and `curves`), so every binding of the
function object in every loaded `holecount` module is replaced, and every
one is put back on exit. Spans stay in memory; the caller writes them out.

Self time is a span's duration minus the durations of its direct children.
Spans of one request nest inside its root span, so the self times of a
request sum to the root span's duration.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple

# (layer, module, attribute) of every traced function; the span name is
# "<layer>.<attribute>".
TRACED = (
    ("grid", "holecount.grid", "parse_image"),
    ("labeling", "holecount.labeling", "label_components"),
    ("labeling", "holecount.labeling", "label_mask"),
    ("labeling", "holecount.labeling", "holes_in_mask"),
    ("corners", "holecount.corners", "neighbor_counts"),
    ("corners", "holecount.corners", "classify_corners"),
    ("corners", "holecount.corners", "find_pathological"),
    ("corners", "holecount.corners", "validate_component"),
    ("curves", "holecount.curves", "trace_contours"),
    ("curves", "holecount.curves", "curve_census"),
    ("curves", "holecount.curves", "second_proof_accounting"),
    ("solid3d", "holecount.solid3d", "double_component"),
    ("solid3d", "holecount.solid3d", "extract_surface"),
    ("solid3d", "holecount.solid3d", "classify_surface_points"),
    ("solid3d", "holecount.solid3d", "euler_genus_oracle"),
    ("holes", "holecount.holes", "analyze_image"),
    ("holes", "holecount.holes", "analyze_component"),
    ("cli", "holecount.cli", "main"),
)
# (layer, module, class, method) of traced methods.
TRACED_METHODS = (("labeling", "holecount.labeling", "LabelMap", "mask_of"),)

LAYERS = ("grid", "labeling", "corners", "curves", "solid3d", "holes", "cli")
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TRACED) + tuple(
    f"{layer}.{meth}" for layer, _, _, meth in TRACED_METHODS
)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Work counts computed from arguments and results, outside the span's time.
COUNTERS: dict[str, Callable] = {
    "grid.parse_image": lambda a, k, r: {"grid.bytes_parsed": len(_first_arg(a, k))},
    "labeling.label_mask": lambda a, k, r: {"labeling.cells_labeled": _first_arg(a, k).size},
    "corners.neighbor_counts": lambda a, k, r: {"corners.cells_scanned": _first_arg(a, k).size},
    "curves.trace_contours": lambda a, k, r: {
        "curves.contour_points": sum(len(ct.points) for ct in r)
    },
    "solid3d.extract_surface": lambda a, k, r: {
        "solid3d.surface_faces": len(r.faces),
        "solid3d.surface_vertices": len(r.vertices),
    },
    "holes.analyze_image": lambda a, k, r: {
        "holes.components": len(r),
        "holes.valid_components": sum(
            1 for rep in r if rep.validity is not None and rep.validity.valid
        ),
    },
}
COUNT_NAMES = (
    "grid.bytes_parsed",
    "labeling.cells_labeled",
    "corners.cells_scanned",
    "curves.contour_points",
    "solid3d.surface_faces",
    "solid3d.surface_vertices",
    "holes.components",
    "holes.valid_components",
)


class Span(NamedTuple):
    request: int
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    """Context manager that traces holecount calls while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "holecount" or name.startswith("holecount."))
        ]
        for layer, modname, attr in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)
        for layer, modname, clsname, meth in TRACED_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._rebind(cls, meth, self._wrap(f"{layer}.{meth}", cls.__dict__[meth]))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(self.request, name, start, end, parent)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
