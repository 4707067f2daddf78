import os
import sys

# The benchmark's modules import each other by name, and vlmkit from src/.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
