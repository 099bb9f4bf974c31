"""One cold start of an in-process workload, for its set-up time.

``python3 perfbench/warmup.py <workload>`` imports the program, runs
one small warm-up request of the workload and prints ``ready``; the
benchmark times the child from spawn to that line.
"""

import os
import sys


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.workloads import WARM_UPS

    WARM_UPS[sys.argv[1]]()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
