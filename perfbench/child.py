"""Fresh-interpreter probes started by run.py, which passes its pinned environment.

    python3 perfbench/child.py setup
        Import phasewave, build the CLI parser, print {"setup_s": ...}.
    python3 perfbench/child.py cold WORKLOAD SEED SMOKE TMPDIR
        Import everything, run one iteration in TMPDIR, print
        {"t_end": <time.monotonic() when the iteration ended>, "outcome": ...}.

time.monotonic() reads CLOCK_MONOTONIC, which all processes share, so the
parent subtracts its own spawn time from ``t_end``.  Only modules the
interpreter has already loaded are imported before phasewave.
"""

import os
import sys
import time

_T0 = time.monotonic()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv):
    if argv[0] == "setup":
        import phasewave.cli

        phasewave.cli.build_parser()
        setup_s = time.monotonic() - _T0
        print('{"setup_s": %r}' % setup_s)
        return 0
    import json

    import workloads

    _, name, seed, smoke, tmp = argv
    wl = workloads.WORKLOADS[name](int(seed), smoke == "1")
    ops = wl.run(tmp)
    t_end = time.monotonic()
    print(json.dumps({"t_end": t_end, "outcome": wl.outcome(ops, tmp)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
