"""A fresh process that sets up one workload and says ``ready``.

``run.py`` starts this script several times and times each from spawn
to the ``ready`` line: interpreter start, imports, the native probe and
load, warm-up calls, and for ``service`` the service start.  The
median of those times is the ``setup_s`` metric.  The warm-up inputs
(and, for ``outofcore``, the warm-up files) were built by ``run.py``
and arrive as a pickle, so their generation is not timed.

Usage: ``python3 setup_probe.py <workload> <work dir> <warm-up pickle>``
(run.py sets the environment and ``PYTHONPATH``).
"""

import pickle
import sys


def main() -> int:
    import workloads

    name, work, warm_path = sys.argv[1:4]
    with open(warm_path, "rb") as fh:
        warm = pickle.load(fh)
    workloads.setup(name, work, warm, lambda: print("ready", flush=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
