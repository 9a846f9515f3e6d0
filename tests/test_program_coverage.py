"""The coverage listing of tools/program_coverage.py, run as its own process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_listing_names_what_the_traffic_never_runs():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "program_coverage.py")],
                          capture_output=True, text=True, check=True)
    *listed, total = done.stdout.splitlines()
    assert total == f"{len(listed)} statements inside src/ functions did not run"
    missed = [tuple(line.split("  ", 2)) for line in listed]  # (path:line, function, source)
    by_function = {}
    for _, function, source in missed:
        by_function.setdefault(function, []).append(source)
    assert by_function["GroupElement.identity"] == ["return GroupElement(np.eye(2))"]
    assert "dfs_logical_paulis" not in by_function
    assert [s.split("(")[0] for s in by_function["_checked_distribution"]] == ["raise ValueError"]
