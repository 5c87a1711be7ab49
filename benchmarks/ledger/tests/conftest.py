"""Make the ledger's modules importable as top-level modules, the way
``run.py`` imports them when run as a script."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
if str(LEDGER) not in sys.path:
    sys.path.insert(0, str(LEDGER))
