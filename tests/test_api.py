import os
import subprocess
import sys
from pathlib import Path

import prnukit
import prnukit.matching


def test_all_is_sorted_unique_and_resolves():
    names = prnukit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(prnukit, name), name
    # the brute-force correlation oracle lives in tests/oracles.py
    assert not hasattr(prnukit.matching, "cross_correlate_direct")


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal is slow to import and large, and no module of the package needs it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import prnukit.cli, sys; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True)
