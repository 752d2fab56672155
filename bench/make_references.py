"""Regenerate the reference output digests of one workload.

Usage, from the root of a gensim checkout:

    python3 bench/make_references.py --workload NAME

Runs one untraced pass per input variant and stores the digests in
``bench/references/NAME.json``.  Run it only on a commit whose outputs are
trusted: every later benchmark run compares its outputs with these.
Certificates are re-checked while the references are made, and a variant
whose outputs fail that check or exit 2 stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import gate
from workloads import VARIANTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    digests = {}
    for v in range(VARIANTS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(v), "--reference"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            print(f"variant {v}: {result['problems']}", file=sys.stderr)
            return 1
        digests[str(v)] = result["digests"]
        print(f"variant {v}: {len(result['digests'])} jobs", file=sys.stderr)
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    with open(gate.reference_path(args.workload), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
