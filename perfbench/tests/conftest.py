import sys
from pathlib import Path

# the benchmark's modules and the package sources, as perfbench/run.py sees them
HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
