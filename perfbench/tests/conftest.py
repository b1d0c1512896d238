import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


@pytest.fixture
def run_cli():
    """Run one CLI request in process; return (exit code, stdout, stderr)."""
    import holecount.cli

    def run(cmd, path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = holecount.cli.main([cmd, str(path)])
        return rc, out.getvalue(), err.getvalue()

    return run
