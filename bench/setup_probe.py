"""Time one cold set-up in a fresh interpreter: ``import xdiff`` plus config construction.

Usage: python3 bench/setup_probe.py <src dir> <preset> <overrides as JSON>
Prints one JSON object with ``import_s`` and ``config_s``.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

src, preset_name, overrides = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)

import xdiff  # noqa: E402

imported = time.perf_counter()
xdiff.preset_with_overrides(preset_name, overrides)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "config_s": built - imported}))
