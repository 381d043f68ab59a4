"""The repository's one end-to-end benchmark (see README.md beside this file).

Importing the package puts the checkout's ``src/`` first on ``sys.path``:
the benchmark always measures the code it sits next to, never an
installed copy of ``repro``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
