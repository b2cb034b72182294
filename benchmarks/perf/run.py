#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ARTC reproduction.

Two ways to run it (README.md has the details):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the ``BENCHMARK.json`` contract: set up the inputs
    from the seed (several times, for a steady ``setup_s``), measure in
    a fresh child process, print every metric by name with its unit,
    and end with one JSON result line.

``run.py [--seed N] [--runs K] [--seconds S] [--trace 0|1] [--out FILE]``
    Every workload, one at a time, each run in its own process,
    untraced and traced; all runs land in one file ``compare.py`` reads.

Everything the benchmark writes goes under ``benchmarks/perf/out/``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # Nothing to measure: fail before printing anything a driver
        # could take for a result.
        sys.exit("run.py: no program under test at %s" % SRC)
    sys.path[:0] = [HERE, SRC]
    import driver

    return driver.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
