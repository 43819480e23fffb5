"""Make the benchmark's modules and ``src/`` importable for its self-tests."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (_HERE, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
