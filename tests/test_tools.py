"""The checkpoint byte comparison script, run against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_checkpoints_finds_this_checkout_identical():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_checkpoints.py"),
         str(ROOT)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.strip() for line in done.stdout.splitlines()
                if line.strip().startswith(("other checkout:", "second run:"))]
    assert len(verdicts) == 24, done.stdout
    assert all(v.endswith(": identical") for v in verdicts), done.stdout
    counts = [line for line in done.stdout.splitlines()
              if line.startswith("lines of src/treeconv/*.py: ")]
    assert len(counts) == 1, done.stdout
    this, other = counts[0].split(": ", 1)[1].split(", ")
    assert this.startswith("this ") and other.startswith("other ")
    assert int(this.split()[1]) == int(other.split()[1]) > 0
