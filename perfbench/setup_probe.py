"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times what every ``miakit`` command pays before it does any work: importing
``miakit.cli`` and loading the workload's input document (a scenario, or a
traffic topology).  Prints "<total seconds> <import seconds>".

Usage: setup_probe.py SRC_DIR scenario|topology PATH
"""

import sys
from time import perf_counter


def main() -> int:
    src, kind, path = sys.argv[1:4]
    t0 = perf_counter()
    sys.path.insert(0, src)
    import miakit.cli

    t1 = perf_counter()
    if kind == "scenario":
        miakit.cli.load_scenario(path)
    else:
        miakit.cli.synth.load_topology(path)
    t2 = perf_counter()
    print(f"{t2 - t0!r} {t1 - t0!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
