"""Record the reference output of every pool item of every workload.

    python3 bench/make_golden.py [workload ...]

Run it from the repository root at the commit whose outputs are the
reference. It writes golden/<workload>.json.gz, which run.py's checks
compare against. Simulate items and rejected inputs have no recorded
output: they are checked by statistics and by exit code.
"""

import sys
import tempfile
import time
from pathlib import Path

import run

run.prepare_imports()

import checks  # noqa: E402
import workloads  # noqa: E402


def main(names):
    for workload in names or workloads.WORKLOADS:
        t0 = time.perf_counter()
        run.RESULTS_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS_DIR) as scratch:
            items = workloads.pool(workload, Path(scratch))
            outputs = {}
            for item in items:
                if item.check == "golden" and item.key not in outputs:
                    outputs[item.key] = workloads.normalize(item, item.call())
        path = checks.save_golden(workload, outputs, run.run_record(workload))
        print(f"{workload}: {len(outputs)} outputs in {time.perf_counter() - t0:.1f} s -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
