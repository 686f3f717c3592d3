"""Where the benchmark finds the program it measures.

The benchmark runs from the root of a source checkout and measures the
``posgen`` package under ``src/`` there, never an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit 2 if it is missing."""
    if not (SRC / "posgen" / "__init__.py").is_file():
        print(f"bench: no posgen sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
