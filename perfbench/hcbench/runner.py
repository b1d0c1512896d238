"""Closed-loop request runner: one process, one thread, one client.

Each request is `holecount.cli.main([command, input_file])` with stdout and
stderr captured; the next request starts only after the previous one has
returned and been checked, and requests go on until the run time is used
up.

With `--trace 0` every request is untraced and timed, in batches of one
command's requests that share the run equally among the commands; each
command's metric is the median of its batch means, scaled to the
reference speed by the run's median probe time. Each request and each
set-up pass starts on the CPU that is fastest at that moment
(`cpu.Pinner`).
With `--trace 1` requests
run in cycles of one per command: an untraced warm-up cycle, then
alternating traced and untraced cycles. The traced cycles give the
per-layer numbers, and the untraced ones after the warm-up the baseline
for the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import holecount.cli

from .check import check_response
from .cpu import Pinner, at_reference_speed
from .tracer import COUNT_NAMES, LAYERS, SPAN_NAMES, Tracer, self_times
from .truth import image_truth
from .workloads import COMMANDS, WORKLOADS, Generated

SETUP_REPEATS = 3
BATCH_S = 1.0
# The layers each command reaches; the other pairs are always 0 and are not
# reported.
COMMAND_LAYERS = {
    "analyze": ("grid", "labeling", "corners", "curves", "holes", "cli"),
    "curves": ("grid", "labeling", "corners", "curves", "cli"),
    "genus3d": ("grid", "labeling", "corners", "curves", "solid3d", "cli"),
}
# Largest allowed gap between a request's summed self times and its root span.
SELF_SUM_TOLERANCE_S = 1e-6
BENCH_DIR = Path(__file__).resolve().parent.parent
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"


@dataclass
class Record:
    cmd: str
    cycle: int  # the cycle of a traced run; the command's batch in an untraced one
    traced: bool
    seconds: float
    rc: int | None
    stdout_sha256: str
    problems: list
    cpu: int | None  # the CPU the request ran on; None with one allowed CPU
    probe_s: float  # cpu.probe() on that CPU just before the request


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def request(
    pinner: Pinner, cmd: str, path: Path, truth, cycle: int, traced: bool
) -> Record:
    where, probe_s = pinner.pin_fastest()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = holecount.cli.main([cmd, str(path)])
        except Exception:  # a traceback is a failed request, not a dead run
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - t0
    stdout, stderr = out.getvalue(), err.getvalue()
    if rc is None:
        problems = [f"raised: {stderr.strip().splitlines()[-1]}"]
    else:
        problems = check_response(cmd, truth, rc, stdout, stderr)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return Record(cmd, cycle, traced, seconds, rc, digest, problems, where, probe_s)


def setup(
    pinner: Pinner, workload: str, seed: int
) -> tuple[Path, Generated, list[float], list[float]]:
    """Generate and write the input SETUP_REPEATS times; all copies must
    match. Returns the path, the input, each pass's time and the probe
    time before each pass."""
    WORK_DIR.mkdir(exist_ok=True)
    times, probes, data = [], [], None
    for _ in range(SETUP_REPEATS):
        probes.append(pinner.pin_fastest()[1])
        t0 = perf_counter()
        generated = WORKLOADS[workload](seed)
        path = WORK_DIR / f"{workload}.{generated.suffix}"
        path.write_bytes(generated.data)
        times.append(perf_counter() - t0)
        if data is not None and generated.data != data:
            raise RuntimeError(f"{workload}: seed {seed} gave two different inputs")
        data = generated.data
    return path, generated, times, probes


def per_layer(tracer: Tracer, records: list[Record], traced_cycles: int) -> tuple[dict, float]:
    """Per-cycle layer metrics of the traced cycles, and the largest gap on
    one request between its summed self times and its root span."""
    own = self_times(tracer.spans)
    calls, self_s, cmd_layer = Counter(), Counter(), Counter()
    per_request_self, per_request_root = Counter(), Counter()
    analyze_calls = Counter()
    for span, t in zip(tracer.spans, own):
        cmd = records[span.request].cmd
        calls[span.name] += 1
        self_s[span.name] += t
        cmd_layer[cmd, span.name.split(".")[0]] += t
        per_request_self[span.request] += t
        if span.parent < 0:
            per_request_root[span.request] += span.end - span.start
        if cmd == "analyze":
            analyze_calls[span.name] += 1
    n = traced_cycles
    m = {}
    for name in SPAN_NAMES:
        if name != "cli.main":
            m[f"{name}.calls"] = calls[name] / n
            m[f"{name}.self_s"] = self_s[name] / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(cmd_layer[c, layer] for c in COMMANDS) / n
    for c in COMMANDS:
        for layer in COMMAND_LAYERS[c]:
            m[f"{c}.{layer}.self_s"] = cmd_layer[c, layer] / n
    for name in COUNT_NAMES:
        m[name] = tracer.counts[name] / n
    components = max(tracer.counts["holes.components"], 1)
    m["analyze.corners.neighbor_counts.per_component"] = (
        analyze_calls["corners.neighbor_counts"] / components
    )
    m["analyze.labeling.label_mask.per_component"] = (
        analyze_calls["labeling.label_mask"] / components
    )
    m["trace.spans"] = len(tracer.spans) / n
    gap = max(
        (abs(per_request_self[r] - per_request_root[r]) for r in per_request_self),
        default=0.0,
    )
    return m, gap


def median_seconds(records: list[Record], cmd: str, traced: bool, first_cycle: int = 0) -> float:
    return statistics.median(
        r.seconds for r in records
        if r.cmd == cmd and r.traced == traced and r.cycle >= first_cycle
    )


def tails(records: list[Record]) -> dict:
    """The 90th and 99th percentile of each command's untraced times, each
    only when at least ten samples lie beyond it."""
    out = {}
    for cmd in COMMANDS:
        times = sorted(r.seconds for r in records if r.cmd == cmd and not r.traced)
        for pct in (90, 99):
            if len(times) * (100 - pct) >= 1000:
                cuts = statistics.quantiles(times, n=100)
                out[f"{cmd}_p{pct}_s"] = {"value": cuts[pct - 1], "samples": len(times)}
    return out


def timed_loop(
    pinner: Pinner, path: Path, truth, seconds: float
) -> tuple[list[Record], dict]:
    """Untraced batches; returns the records and each command's samples.

    A batch is one command's requests, one after another, until they have
    taken BATCH_S (at least one request). A sample is the mean request
    time of one batch. The next batch is for the command with the least
    time spent on it so far, so the commands share the run equally and
    each one's samples are spread over all of it. Every command gets one
    batch; after that, a batch starts only if the command's last batch
    says it would end within half a batch of `seconds`.
    """
    records: list[Record] = []
    samples = {cmd: [] for cmd in COMMANDS}
    busy = dict.fromkeys(COMMANDS, 0.0)
    last = dict.fromkeys(COMMANDS, 0.0)
    start = perf_counter()
    while True:
        cmd = min(COMMANDS, key=busy.__getitem__)
        if samples[cmd] and perf_counter() - start + last[cmd] / 2 > seconds:
            return records, samples
        t0 = perf_counter()
        batch: list[float] = []
        while sum(batch) < BATCH_S:
            records.append(
                request(pinner, cmd, path, truth, len(samples[cmd]), traced=False)
            )
            batch.append(records[-1].seconds)
        samples[cmd].append(statistics.fmean(batch))
        last[cmd] = perf_counter() - t0
        busy[cmd] += last[cmd]


def traced_loop(
    pinner: Pinner, tracer: Tracer, path: Path, truth, seconds: float
) -> tuple[list[Record], int]:
    """Cycles of one request per command: an untraced warm-up cycle, then
    traced and untraced cycles alternating. At least three cycles run; after
    that, no cycle starts that the last cycle says would end past `seconds`.
    """
    records: list[Record] = []
    cycle, last = 0, 0.0
    start = perf_counter()
    while cycle < 3 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        if cycle % 2 == 1:
            with tracer:
                for cmd in COMMANDS:
                    tracer.request = len(records)
                    records.append(request(pinner, cmd, path, truth, cycle, traced=True))
        else:
            for cmd in COMMANDS:
                records.append(request(pinner, cmd, path, truth, cycle, traced=False))
        last = perf_counter() - t0
        cycle += 1
    return records, cycle


def run(argv, pinner: Pinner, import_s: float, import_probe_s: float) -> dict:
    args = parse_args(argv)
    path, generated, setup_times, setup_probes = setup(pinner, args.workload, args.seed)
    truth = image_truth(generated)

    if args.trace:
        tracer = Tracer()
        records, cycle = traced_loop(pinner, tracer, path, truth, args.seconds)
    else:
        records, samples = timed_loop(pinner, path, truth, args.seconds)
    pinner.unpin()

    failed = sum(1 for r in records if r.problems)
    if args.trace:
        traced_cycles = cycle // 2
        metrics, gap = per_layer(tracer, records, traced_cycles)
        metrics["trace.overhead_s"] = sum(
            median_seconds(records, c, True) - median_seconds(records, c, False, first_cycle=1)
            for c in COMMANDS
        )
        metrics["trace.wall_s"] = sum(r.seconds for r in records if r.traced) / traced_cycles
        if gap > SELF_SUM_TOLERANCE_S:
            raise RuntimeError(f"self times miss their request's root span by {gap} s")
        units = {}
    else:
        unscaled = {f"{c}_s": statistics.median(samples[c]) for c in COMMANDS}
        unscaled["setup_s"] = import_s + statistics.median(setup_times)
        run_probe_s = statistics.median(r.probe_s for r in records)
        setup_probe_s = statistics.median([import_probe_s, *setup_probes])
        metrics = {
            k: at_reference_speed(v, setup_probe_s if k == "setup_s" else run_probe_s)
            for k, v in unscaled.items()
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"peak_rss_mb": "MB"}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": {"file": path.name, "bytes": len(generated.data),
                  "components": len(truth.components)},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "import_s": import_s,
        "self_sum_gap_s": gap if args.trace else None,
        "setup_gen_write_s": setup_times,
        "setup_probe_s": [import_probe_s, *setup_probes],
        "unscaled_metrics": unscaled if not args.trace else None,
        "requests_per_command": {
            c: sum(1 for r in records if r.cmd == c and not r.traced) for c in COMMANDS
        },
        "batch_means_s": samples if not args.trace else None,
        "allowed_cpus": sorted(pinner.allowed),
        "tails": tails(records),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "metrics": metrics,
        "requests": [asdict(r) | {"problems": r.problems[:5]} for r in records],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    for r in records:
        if r.problems:
            print(f"FAILED {r.cmd}: {'; '.join(r.problems[:3])}")
    print(f"{args.workload} seed={args.seed} components={len(truth.components)} "
          f"requests={report['requests_per_command']} fail_ratio={report['fail_ratio']}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units.get(k, _unit(k))} for k, v in metrics.items()
        },
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "calls/component" if name.endswith(".per_component") else "count"
