"""Write digests.json: the sha256 of every seed-0 report's render_json bytes.

Run from the repository root, only when a change to the report bytes is
intended:  python3 perfbench/pin.py
"""

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))
warnings.simplefilter("ignore")

from factpat import census  # noqa: E402
from workloads import DIGESTS, WORKLOADS, calls_for, digest  # noqa: E402

pins = {}
for workload in WORKLOADS:
    for call in calls_for(workload, 0):
        rep = call.run()
        if not rep["overall_pass"]:
            sys.exit(f"{call.key}: overall_pass is false; nothing pinned")
        pins[call.key] = digest(census.render_json(rep))
        print(call.key, pins[call.key])
DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
