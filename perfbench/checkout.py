"""Locates the program source in the checkout the benchmark runs in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_source() -> None:
    """Import ``dynevo`` from this checkout's ``src``, or exit with 2."""
    if not (SRC / "dynevo" / "__init__.py").is_file():
        print(f"error: no dynevo source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
