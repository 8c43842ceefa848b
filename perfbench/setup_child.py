"""One set-up sample: a fresh interpreter imports henon_morse and runs the
warm-up operation, then prints the CLOCK_MONOTONIC time at which it became
ready.  The parent subtracts the time it spawned this process.

    python3 perfbench/setup_child.py OUT_FILE
"""

import sys
import time

import program

from henon_morse.cli import main

if main(program.warm_up_argv(sys.argv[1])) != 0:
    sys.exit("perfbench: the warm-up operation failed")
print(repr(time.monotonic()))
