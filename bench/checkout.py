"""Locate the latmin sources of the checkout the benchmark runs in.

The benchmark runs the library from ``src/`` of the checkout it lives in,
never from an installed copy, so parent and change are measured on their
own code.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_sources() -> None:
    """Put ``src/`` first on ``sys.path``; exit with code 1 if it is missing."""
    if not (SRC / "latmin" / "__init__.py").is_file():
        sys.exit(f"bench: no latmin sources under {SRC}")
    sys.path.insert(0, str(SRC))


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository.

    ``--git-dir`` keeps git from searching parent directories for a
    repository when the checkout has none.
    """
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()
