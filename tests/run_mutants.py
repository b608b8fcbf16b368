"""Run the mutation catalogue of tests/mutants.py and report which mutants survive.

    python tests/run_mutants.py

Copies src/, tests/ and pyproject.toml to a temporary directory (pytest's
``pythonpath = ["src"]`` picks the copy's src/), checks that the whole suite
passes there unmutated, then applies every mutant, one at a time. Each
mutant runs its killers with ``-x``; a mutant they miss runs the whole
suite. A mutant is killed only by failing tests (pytest exit 1); any other
exit (a collection or import error, a usage error, no test collected) is a
runner error, reported with exit 2, since it says nothing of the guards.
The known failure of acceptance criterion 3 is deselected from every run,
since it would read every mutant as killed. Prints one line per mutant
(killed or survived, by which run, seconds) and exits 1 if any mutant
survives. Not a pytest module: pytest collects only test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_03_protocol_comparison"
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", KNOWN_FAILURE)


class RunnerError(Exception):
    """pytest ended neither with all tests passed nor with some failed."""


def _fails(workdir: Path, tests) -> bool:
    """Whether some of ``tests`` (the whole suite if none) fail in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("SRQKD_CONFIG", None)
    run = subprocess.run([*PYTEST, *tests], cwd=workdir, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if run.returncode not in (0, 1):
        raise RunnerError(f"pytest exited {run.returncode} on {' '.join(tests) or 'the suite'}")
    return run.returncode == 1


def main() -> int:
    print(f"deselected in every run: {KNOWN_FAILURE} (a known failure)")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="srqkd-mutants-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", workdir)
        try:
            if _fails(workdir, ()):
                print("the suite fails on the unmutated code; no mutant run")
                return 2
            survivors = []
            for mutant in MUTANTS:
                path = workdir / mutant.file
                original = path.read_text(encoding="utf-8")
                if original.count(mutant.old) != 1:
                    print(f"{mutant.id}: old text not found exactly once in {mutant.file}")
                    return 2
                path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
                t0 = time.perf_counter()
                if _fails(workdir, mutant.killers):
                    verdict = "killed by its killers"
                elif _fails(workdir, ()):
                    verdict = "killed by the full suite only"
                else:
                    verdict = "SURVIVED"
                    survivors.append(mutant.id)
                path.write_text(original, encoding="utf-8")
                print(f"{mutant.id:<30} {verdict:<30} {time.perf_counter() - t0:6.1f} s")
        except RunnerError as exc:
            print(f"runner error: {exc}")
            return 2
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
