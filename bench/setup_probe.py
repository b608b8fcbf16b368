"""Fresh-interpreter set-up probe: import srqkd and srqkd.cli, generate inputs.

    python3 bench/setup_probe.py <workload> <seed> <scratch-dir>

run.py times whole runs of this script; its wall time is what any CLI user
pays before the first result.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import srqkd  # noqa: E402,F401
import srqkd.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
