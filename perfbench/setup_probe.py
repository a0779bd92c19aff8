"""Child process timed by the benchmark's set-up measurement.

Does what a user's process does before its first operation can start:
imports roughassim and, for the twin workloads, loads the config and builds
the cost.  Prints ``ready`` when done.

    python3 perfbench/setup_probe.py <workload> [config.json]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    if argv[0] == "diagnostics":
        import roughassim.checks  # noqa: F401
    else:
        from roughassim.experiments import build_cost, load_config

        build_cost(load_config(argv[1]))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
