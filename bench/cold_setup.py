"""Child process for setup_s: time from process start to the end of one
workload's set-up, cold.

    python3 bench/cold_setup.py <workload> <seed> <tiny 0|1>

Prints the elapsed seconds as the last line of stdout.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

from common import init_process  # noqa: E402


def main() -> None:
    init_process()
    from workloads import workloads
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    workloads(tiny)[name].cold_setup(seed)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
