"""One timed iteration of a library workload in a fresh interpreter.

Usage: python3 library_iteration.py <workload> <seed> <out.json>
Writes the call's wall and CPU time and its outputs as JSON.
"""

import json
import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, out_path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make(name, seed, out_path.parent)
    result = workload.run_inprocess(n_jobs=workload.workers)
    out_path.write_text(json.dumps(result))
