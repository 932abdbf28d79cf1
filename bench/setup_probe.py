"""One set-up in a fresh interpreter: import the package, validate, create the run dir.

Usage: python3 setup_probe.py <src dir> <config.json> <run dir>
The caller times this process from start to exit.
"""

import json
import os
import sys


def main(src: str, config_path: str, run_dir: str) -> int:
    sys.path.insert(0, src)
    from prefetchlab.pipeline import ExperimentConfig

    with open(config_path) as fh:
        ExperimentConfig.from_dict(json.load(fh)).validate()
    os.makedirs(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
