"""Record the sha256 of every output the cold workloads can draw.

    python3 perfbench/record_digests.py

Run once at the baseline commit; the benchmark then fails any operation
whose output differs from the digest recorded here.  Refuses to record an
output that fails the benchmark's own checks.
"""

from __future__ import annotations

import json
import sys

import worker  # sets up sys.path for qeuler and the benchmark modules
from checks import argv_key
from workloads import all_argvs


def main() -> int:
    from qeuler import cli

    digests, bad = {}, []
    for workload in ("tables", "checks"):
        for argv in all_argvs(workload):
            rec = worker.forked(worker.cli_op(cli, argv, "plain", 0))
            if rec.get("error") or rec["problems"]:
                bad.append(f"{argv_key(argv)}: {rec.get('error') or rec['problems']}")
            digests[argv_key(argv)] = rec.get("sha256")
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    path = worker.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
