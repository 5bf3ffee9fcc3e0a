"""Peak memory of the alpha-basis caches over an r-sweep at 2j1 = 2j2 = 32.

verify_cg_orthonormality at 40 values of r in a fresh process builds each of
its 33 coupling tensors once per r, about 19 MB of them per r, into one
19 MB change-of-basis matrix. A result used once must not stay cached: the
three alpha-basis caches share one 4 MiB FIFO of first uses, so the peak
above import stays under 50 MB. It reads 31 MB; with a FIFO per tensor cache
and a conjugate copy of the matrix it read 79 MB, and with every result kept
in the caches about 800 MB. The sweep takes about ten seconds, so the default
run does not collect this module (its name does not start with test_). Run it
by name:

    python -m pytest -q tests/alpha_memory_2j32.py
"""

import subprocess
import sys

# ru_maxrss after import and after the sweep; KiB on Linux, bytes on macOS
SWEEP = """
import resource
from wigner_nonstd import HalfInt, SpinSpace, nonstandard
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for n in range(40):
    space = SpinSpace(HalfInt(32), n / 40)
    assert nonstandard.verify_cg_orthonormality(space, space).worst() < 1e-10
print(imported, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_an_r_sweep_at_2j32_peaks_under_50_mb_above_import():
    proc = subprocess.run([sys.executable, "-c", SWEEP], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported, peak = map(int, proc.stdout.split())
    above = (peak - imported) / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)
    assert above < 50, above
