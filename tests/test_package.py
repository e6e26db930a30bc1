"""Process-wide effects of importing the package."""

import os
import platform
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Two 4 MB arrays live at once, written through, allocated and freed 50
# times after one warm-up round. With glibc's defaults, freeing a mapped
# block raises the mmap threshold to its size and the trim threshold to
# twice that; two live blocks then push the top of the heap past the trim
# threshold, so every round hands the pages back and faults them in again
# (about 2000 minor faults a round).
_FAULT_PROBE = """
import resource
import numpy as np
import spikecl
def round_trip():
    a, b = np.ones((2000, 256)), np.ones((2000, 256))
round_trip()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    round_trip()
print(spikecl.HEAP_KEPT_MAPPED, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")
def test_import_keeps_freed_arrays_mapped():
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    kept, faults = proc.stdout.split()
    assert kept == "True"
    assert int(faults) < 1000, f"{faults} minor faults for 50 rounds of two 4 MB arrays"
