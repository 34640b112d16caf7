"""Path set-up for the harness tests (``pytest benchmarks/e2e/tests``).

These tests are not part of tier-1: they start real benchmark children
and take about a minute.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for path in (E2E, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
