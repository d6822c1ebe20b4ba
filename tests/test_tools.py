"""The checkpoint byte comparison script: run against this checkout,
and its account of how two files differ."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def _compare_module():
    spec = importlib.util.spec_from_file_location(
        "compare_checkpoints", ROOT / "tools" / "compare_checkpoints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, header, arrays):
    """A file in the checkpoint layout: `header` plus the arrays' names
    and shapes, then their little-endian float64 payload."""
    header = dict(header, arrays=[{"name": name, "shape": list(a.shape)}
                                  for name, a in arrays])
    blob = json.dumps(header).encode()
    path.write_bytes(b"treeconv-checkpoint\n" + b"%d\n" % len(blob) + blob
                     + b"\n" + b"".join(a.astype("<f8").tobytes()
                                        for _, a in arrays))


def test_largest_difference_tells_header_only_from_array_changes(tmp_path):
    compare = _compare_module()
    arrays = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.ones(4))]
    header = {"format_version": 1, "config": {"n_c": 2}}
    ours, theirs, changed = (tmp_path / name for name in ("ours", "theirs",
                                                          "changed"))
    _write(ours, header, arrays)
    _write(theirs, dict(header, config={"n_c": 3}, variant="d",
                        has_rae=False), arrays)
    assert (compare.largest_difference(ours, theirs)
            == "arrays identical; header keys differ: "
               "['config', 'has_rae', 'variant']")
    reordered = tmp_path / "reordered"
    _write(reordered, {"config": {"n_c": 2}, "format_version": 1}, arrays)
    assert (compare.largest_difference(ours, reordered)
            == "arrays identical; header values equal, "
               "header bytes differ in layout only")
    b = np.ones(4)
    b[2] = 1.5
    _write(changed, header, [arrays[0], ("b", b)])
    assert (compare.largest_difference(ours, changed)
            == "largest |d|/max|x| 0.5 in b")
