"""Benchmark entry point for the holecount CLI.

Run from the repository root:

    python3 perfbench/run.py --workload blob --seed 1 --seconds 50 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The package is imported from `src/`
next to this directory; without it the benchmark exits 2 and prints no
result. See perfbench/README.md.
"""

import json
import sys
import time
from pathlib import Path

from hcbench.cpu import Pinner

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "holecount" / "__init__.py").is_file():
        print(f"error: no holecount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pinner = Pinner()
    _, import_probe_s = pinner.pin_fastest()
    t0 = time.perf_counter()
    import holecount.cli  # noqa: F401  (timed: part of setup_s)

    import_s = time.perf_counter() - t0
    if Path(holecount.cli.__file__).resolve().parent != SRC / "holecount":
        print(f"error: holecount imported from {holecount.cli.__file__}", file=sys.stderr)
        return 2
    from hcbench.runner import run

    print(json.dumps(run(sys.argv[1:], pinner, import_s, import_probe_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
