"""Set-up of one workload in a fresh interpreter.

    python3 bench/prepare.py WORKLOAD SEED WORKDIR

``run.py`` times this script from start to exit, so ``setup_s`` covers
interpreter start-up, importing latmin, generating the inputs and writing
the instance documents.
"""

import sys
from pathlib import Path

import checkout

checkout.add_sources()

import workloads  # noqa: E402  (needs the sources on sys.path)


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    workloads.WORKLOADS[name]().prepare(int(seed), Path(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
