"""Set-up time of a workload, measured in the fresh interpreter this runs in.

    setup_probe.py library <0|1 float backend> <kind> ...
    setup_probe.py cli "<command line>" ...

Prints the seconds from just before ``import splitquat`` (or
``splitquat.cli``) to the end of one warm-up call of each listed kind or
command line, then the nanoseconds of three reference-kernel runs that
follow it (see calib.py).  Only ``sys`` and ``time`` are imported before
the clock starts, so the library pays for everything it imports.
"""

import sys
import time


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    if mode == "cli":
        import io

        import splitquat.cli

        stdout = sys.stdout
        try:
            for line in rest:
                sys.stdout = io.StringIO()
                splitquat.cli.main(line.split() + ["--json"])
        finally:
            sys.stdout = stdout
    else:
        import ops

        ops.warm_up(rest[1:], approx=rest[0] == "1")
    elapsed = time.perf_counter() - start
    import calib

    print(elapsed, *calib.kernel_ns(3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
