"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_refs.py [workload ...]

Runs each workload once with the same interpreter settings as run.py and
rewrites reference/.  Run it only when a change to rootsums is meant to change
these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import RUNS, Runner
from workloads import REF, WORKLOADS


def main(names: list[str]) -> int:
    tmp = RUNS / "make-refs"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = Runner(tmp, deadline=time.monotonic() + 3600)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        out = tmp / f"{name}.out"
        sample = runner.spawn([], workload.argv(out))
        if not sample["ok"]:
            print(f"{name} failed; see {tmp}", file=sys.stderr)
            return 1
        ref = workload.reference(out)
        if name == "weyl-large":
            # one line: {"q,M,N": [rows, digest], ...}
            groups = json.dumps(ref["groups"], separators=(",", ":"))
            text = f'{{"header": {json.dumps(ref["header"])},\n"groups": {groups}}}'
        elif name == "verify":
            text = json.dumps(ref, indent=1, sort_keys=True)
        else:
            text = ref
        workload.ref_path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {workload.ref_path.relative_to(REF.parent)}")
    shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
