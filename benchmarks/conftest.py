import sys
from pathlib import Path

# The benchmark's own tests import the package from src/ and the shared
# oracles from tests/oracles.py.
ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
