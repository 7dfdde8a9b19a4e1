"""Set-up probe: a fresh interpreter imports bsteleport and builds one workload's inputs.

    python3 perfbench/probe.py WORKLOAD SEED

run.py times several of these for setup_s; it sets the BLAS thread variables
that this process inherits.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bsteleport.cli  # noqa: E402,F401  the grid workloads run through the CLI
import workloads  # noqa: E402

next(workloads.make(sys.argv[1], int(sys.argv[2]), str(HERE / "out")).rounds())
