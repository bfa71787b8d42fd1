"""Record per-instance output digests for the benchmark's default seed.

Run from the repository root after an intended change of program output:

    python3 bench/record_digests.py

Each instance must first pass its workload's own checks; the digests of
the outputs then go to bench/digests.json, which the gate compares
against whenever the benchmark runs with the default seed.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, DIGESTS_FILE, WORKLOADS, digest  # noqa: E402


def main():
    table = {}
    for workload in WORKLOADS.values():
        if not workload.digested:
            continue
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
            entries = {}
            for inst in workload.prepare(DEFAULT_SEED, workdir):
                output = workload.run(inst)
                problem = workload.check(inst, output)
                if problem:
                    print(f"{workload.name} {inst.key}: {problem}", file=sys.stderr)
                    return 1
                entries[inst.key] = digest(output)
        table[workload.name] = entries
        print(f"{workload.name}: {len(entries)} digests")
    DIGESTS_FILE.write_text(
        json.dumps({str(DEFAULT_SEED): table}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
