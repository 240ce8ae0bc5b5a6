"""Put the benchmark's modules and the checkout's `src/` on the import path.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")):
    sys.path.insert(0, os.path.abspath(path))
