"""One set-up, timed from outside: import posgen and write a workload's files.

    python3 bench/setup_probe.py WORKLOAD SEED DIRECTORY

Prints ``ready`` once the files are written.  ``run.py`` starts this in a
fresh process and takes the time from process start to that line as one
sample of ``setup_s``.
"""

import sys
from pathlib import Path

from checkout import use_checkout_sources

if __name__ == "__main__":
    use_checkout_sources()
    from workloads import WORKLOADS

    name, seed, directory = sys.argv[1:4]
    WORKLOADS[name].generate(int(seed), Path(directory))
    print("ready", flush=True)
