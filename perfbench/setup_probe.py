"""One cold start: ``import congroup, congroup.cli`` and build a workload's
rings, specs and section contexts in a fresh interpreter; prints the seconds
that took.  run.py starts this several times and reports the median.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

import gen
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    setup = gen.generate(sys.argv[1], int(sys.argv[2]))["setup"]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import congroup
    import congroup.cli  # noqa: F401

    workloads.build_setup(workloads.Lib(), setup)
    elapsed = time.perf_counter() - t0
    if Path(congroup.__file__).resolve().parent != SRC / "congroup":
        sys.exit(f"congroup imported from {congroup.__file__}, not from {SRC}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
