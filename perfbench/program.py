"""Locate and load the program under test, with its thread pools pinned.

Importing this module pins the BLAS and OpenMP pools to one thread (numpy
reads these variables once, when it is first imported) and puts the
checkout's ``src`` directory first on ``sys.path``, so the benchmark always
measures the source tree it sits in, never an installed copy.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SOURCE / "henon_morse" / "__init__.py").is_file():
    sys.exit(f"perfbench: no henon_morse sources under {SOURCE}")
sys.path.insert(0, str(SOURCE))


def warm_up_argv(out_file) -> list:
    """The uncounted operation that ends set-up: a morse point outside
    every workload's point set that runs route A, route B, the companion
    solve and the JSON writer once."""
    return ["morse", "--alpha", "0.75", "--p", "3", "--nodes", "2",
            "--out", str(out_file)]
