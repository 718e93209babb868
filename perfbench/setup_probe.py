"""Child process that measures set-up: it runs ``flowstage`` on a config
and stops at the first call of the workload's first-op function.

    python3 perfbench/setup_probe.py <src dir> <module> <function> <config>

Prints ``{"first_op": <time.monotonic() at that call>, "slowdown": ...}``.
The parent subtracts the monotonic time it took just before starting
this process, so the figure covers interpreter start, imports, config
load and validation, and checkpoint reads.  ``slowdown`` is the host
slowdown (see ``harness.HostSpeed``) measured right after, in this
process: the median of a burst of reference snippets, the first one,
which runs cold, left out.
"""

import json
import statistics
import sys
import time


class FirstOp(BaseException):
    """Stops the run; not an ``Exception``, so the CLI does not catch it."""


def main() -> int:
    src, module, dotted, config = sys.argv[1:5]
    sys.path.insert(0, src)
    from flowstage import cli

    from harness import HostSpeed, OpClock, PausableClock

    def stop(_index):
        raise FirstOp

    try:
        with OpClock(module, dotted, on_call=stop):
            cli.main([config])
    except FirstOp:
        first_op = time.monotonic()
        speed = HostSpeed(PausableClock())
        burst = [speed.snippet() for _ in range(21)][1:]
        print(json.dumps({"first_op": first_op,
                          "slowdown": statistics.median(burst) / HostSpeed.REFERENCE_S}))
        return 0
    print(f"error: {module}.{dotted} was never called", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
