"""Record the reference outputs every workload's checks compare against.

    python3 perfbench/record.py [workload ...]

Runs every pool member of the named workloads (all by default) once and
rewrites ``perfbench/reference.json``, keeping the entries of workloads
not named.  Run it only on a commit whose outputs are known to be right;
the checked-in file was recorded on the seed commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402


def main(names: list) -> int:
    reference = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for name in names or list(WORKLOADS):
        workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.WORK_ROOT)
        workload = WORKLOADS[name](workdir, 0, None)
        try:
            workload.setup()
            reference[name] = workload.record_reference()
        finally:
            workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {name}", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
