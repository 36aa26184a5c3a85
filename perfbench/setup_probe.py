"""Set-up only: the imports and input files a benchmark run needs before its
first task call.  ``run.py`` times this script in fresh interpreters, start to
exit, to measure ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import sys

import run

if __name__ == "__main__":
    run.set_up(sys.argv[1], int(sys.argv[2]), sys.argv[3])
