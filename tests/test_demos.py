"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_tree_convolution.py",
                                  "02_pooling_strategies.py",
                                  "03_gradient_checking.py",
                                  "04_overfit_training.py",
                                  "05_structural_signal.py",
                                  "06_pooling_comparison.py",
                                  "07_visualize_provenance.py",
                                  "08_question_classification.py"])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
