"""One timed set-up in a fresh interpreter.

    python3 perfbench/setup_once.py WORKLOAD SEED WORKDIR

Imports distsum from the checkout's `src/` together with everything it
pulls in (mpmath among them), then writes the workload's inputs into
WORKDIR, and prints the seconds those two steps took.  Only the modules
the interpreter loads at start-up are loaded before the clock starts; the
benchmark's own `workloads` module is imported between the two timed
steps.  `run.py` runs this several times per run and reports the median
as setup_s, so the figure includes the whole cost of a fresh import.
"""

import importlib
import os
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("cli", "files", "generate", "graphs", "ordering", "palette",
           "recolour", "verify")


def load_distsum():
    """Import distsum and return its modules by short name.

    `distsum.verify` names the function once the package is imported, so
    the module is fetched through importlib.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("distsum")
    return SimpleNamespace(**{m: importlib.import_module(f"distsum.{m}") for m in MODULES})


def main(name, seed, workdir):
    start = perf_counter()
    ds = load_distsum()
    imported = perf_counter() - start
    import workloads  # the script's directory is first on sys.path
    workload = workloads.make(name, int(seed), workloads.Outcome())
    start = perf_counter()
    workload.setup(ds, workdir)
    print(repr(imported + perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
