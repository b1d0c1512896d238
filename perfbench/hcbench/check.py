"""Compare one CLI response with the image truth.

`check_response` returns a list of problems; an empty list means the
response is correct. Expected behaviour:

- `analyze` exits 0 and reports every component with the true area and
  corner census. On a valid component the formula, the oracle and the
  truth agree. A component with a thin point or pathological window is
  reported invalid with no formula count. `holes_oracle` of an invalid
  component is not checked: its value depends on a convention the program
  may still change.
- `curves` and `genus3d` on an image whose components are all valid exit 0
  and every identity they report holds and matches the truth.
- `curves` and `genus3d` on an image with invalid components exit 1 after
  naming the first invalid component and its reasons on stderr.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .truth import ImageTruth

_REASON = re.compile(r"component (\d+) invalid: (\w+) at \((-?\d+), (-?\d+)\)")
THIN = "isolated_or_thin_point"
WINDOW = "pathological_window"
OVERLAP = "contour_overlap"


def check_response(cmd: str, truth: ImageTruth, rc: int, stdout: str, stderr: str) -> list[str]:
    if cmd != "analyze" and not truth.all_valid:
        return _check_rejection(truth, rc, stdout, stderr)
    if rc != 0:
        return [f"exit code {rc}, expected 0; stderr: {stderr[:200]!r}"]
    if stderr:
        return [f"unexpected stderr: {stderr[:200]!r}"]
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if len(data) != len(truth.components):
        return [f"{len(data)} components reported, expected {len(truth.components)}"]
    check_one = {"analyze": _analyze, "curves": _curves, "genus3d": _genus3d}[cmd]
    problems = []
    for cid, (d, t) in enumerate(zip(data, truth.components), start=1):
        try:
            if d["component_id"] != cid:
                problems.append(f"entry {cid} has component_id {d['component_id']}")
                continue
            problems += [f"component {cid}: {p}" for p in check_one(d, t, cid, truth)]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"component {cid}: malformed entry ({exc!r})")
    return problems


def _analyze(d, t, cid, truth) -> list[str]:
    problems = []
    got = (d["area"], d["c2"], d["c3"], d["c4"])
    want = (t.area, t.c2, t.c3, t.c4)
    if got != want:
        problems.append(f"(area, c2, c3, c4) = {got}, expected {want}")
    if d["agreement"] is False:
        problems.append("formula and oracle disagree")
    if truth.all_valid and d["valid"] is not True:
        problems.append("reported invalid, but the component is valid by construction")
    if not t.locally_valid and d["valid"] is not False:
        problems.append("reported valid despite a thin point or pathological window")
    if d["valid"]:
        if not d["holes_formula"] == d["holes_oracle"] == t.holes:
            problems.append(
                f"holes formula/oracle {d['holes_formula']}/{d['holes_oracle']}, "
                f"expected {t.holes}"
            )
        if d["agreement"] is not True:
            problems.append(f"agreement is {d['agreement']} on a valid component")
    elif d["holes_formula"] is not None:
        problems.append("invalid component has a formula count")
    return problems


def _curves(d, t, cid, truth) -> list[str]:
    problems = []
    contours = d["contours"]
    kinds = [ct["kind"] for ct in contours]
    if kinds != ["outer"] + ["hole"] * t.holes:
        problems.append(f"contour kinds {kinds[:4]}... for {t.holes} holes")
    acct = d["accounting"]
    if not (acct["holds"] and acct["lhs"] == acct["rhs"] == 4 * t.holes - 4):
        problems.append(f"accounting {acct}, expected lhs = rhs = {4 * t.holes - 4}")
    n_points = 0
    sums = [0, 0, 0]
    for ct in contours:
        pts = np.asarray(ct["points"], dtype=np.int64).reshape(-1, 2)
        n_points += len(pts)
        census = (ct["cp2"], ct["cp3"], ct["cp4"])
        sums = [s + v for s, v in zip(sums, census)]
        if not ct["lemma_holds"]:
            problems.append(f"{ct['kind']} contour lemma does not hold")
        if sum(census) != len(pts):
            problems.append(f"contour census {census} does not cover its {len(pts)} points")
        problems += _contour_shape(pts, cid, truth.labels)
    if n_points != t.boundary:
        problems.append(f"{n_points} contour points, expected {t.boundary} boundary points")
    if sums != [t.c2, t.c3, t.c4]:
        problems.append(f"summed contour census {sums}, expected {[t.c2, t.c3, t.c4]}")
    return problems


def _contour_shape(pts: np.ndarray, cid: int, labels: np.ndarray) -> list[str]:
    """A contour is a closed 4-step cycle of distinct component points."""
    h, w = labels.shape
    if len(pts) == 0:
        return ["empty contour"]
    inside = (pts[:, 0] >= 0) & (pts[:, 0] < h) & (pts[:, 1] >= 0) & (pts[:, 1] < w)
    if not inside.all() or (labels[pts[:, 0], pts[:, 1]] != cid).any():
        return ["contour leaves the component"]
    if len(np.unique(pts[:, 0] * w + pts[:, 1])) != len(pts):
        return ["contour repeats a point"]
    steps = np.abs(np.roll(pts, -1, axis=0) - pts).sum(axis=1)
    if (steps != 1).any():
        return ["contour is not a closed 4-step cycle"]
    return []


def _genus3d(d, t, cid, truth) -> list[str]:
    problems = []
    failed = sorted(k for k, ok in d["checks"].items() if not ok)
    if failed:
        problems.append(f"checks failed: {failed}")
    if ("simply_connected_identity" in d["checks"]) != (t.holes == 0):
        problems.append("simply_connected_identity present iff genus 0 is violated")
    got = (d["genus_formula"], d["euler_genus_oracle"], d["m3"], d["m5"], d["m6"])
    want = (t.holes, t.holes, 2 * t.c2, 2 * t.c4, 0)
    if got != want:
        problems.append(f"(genus, euler genus, m3, m5, m6) = {got}, expected {want}")
    return problems


def _check_rejection(truth: ImageTruth, rc: int, stdout: str, stderr: str) -> list[str]:
    """The command stops at the first invalid component and says why.

    Every reason it gives must be true of that component. Components before
    it must be free of thin points and windows. When the named component has
    thin points or windows, they must all be listed; otherwise its only
    reason is a contour overlap at one of its boundary points, which the
    truth cannot rule out on its own.
    """
    if rc != 1:
        return [f"exit code {rc}, expected 1"]
    if stdout:
        return ["stdout not empty on a rejected image"]
    reasons = set()
    cids = set()
    for line in stderr.splitlines():
        m = _REASON.fullmatch(line)
        if not m:
            return [f"unexpected stderr line {line!r}"]
        cids.add(int(m[1]))
        reasons.add((m[2], (int(m[3]), int(m[4]))))
    if len(cids) != 1:
        return [f"rejection names components {sorted(cids)}, expected one"]
    cid = cids.pop()
    first = truth.first_locally_invalid()
    if not 1 <= cid <= len(truth.components) or (first is not None and cid > first):
        return [f"rejected component {cid}, but component {first} is invalid earlier"]
    t = truth.components[cid - 1]
    if not t.locally_valid:
        want = {(THIN, p) for p in t.thin} | {(WINDOW, p) for p in t.windows}
        if reasons != want:
            return [f"component {cid} reasons {sorted(reasons)[:3]}..., expected {sorted(want)[:3]}..."]
        return []
    if len(reasons) != 1:
        return [f"component {cid} has no local defect but {len(reasons)} reasons"]
    kind, (r, c) = reasons.pop()
    h, w = truth.labels.shape
    if kind != OVERLAP or not (0 <= r < h and 0 <= c < w) or truth.labels[r, c] != cid:
        return [f"component {cid}: reason {kind} at {(r, c)} is not a contour overlap on it"]
    return []
