"""Set-up as a user pays it: a fresh interpreter imports ``fracnls`` and builds
one workload's problems, with validation.  ``run.py`` times this script from
spawn to exit.

    python3 perfbench/setup_child.py WORKLOAD SEED   (with src/ on PYTHONPATH)
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    here = Path(__file__).resolve().parent
    workloads.make(name, seed, here.parent, here / "out").build()
