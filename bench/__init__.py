"""D-Memo benchmark v1: four closed-loop workloads timed from outside.

``python3 -m bench.run`` drives the public API (``Cluster``, ``Memo``)
and touches nothing under ``src/``; see ``bench/README.md`` for the
workloads, the metric tables and how to compare two sets of runs.
"""

import sys
from pathlib import Path

# The benchmark runs from a bare checkout with nothing installed: put the
# source tree it sits beside on the path before any module imports repro.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(f"bench: no D-Memo source tree at {_SRC}")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
