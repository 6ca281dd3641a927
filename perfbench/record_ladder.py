"""Record the derived certificate fields the ladder workload checks against.

Run from the repository root with ``python3 perfbench/record_ladder.py``.
The fields are recorded at seed 1 and must read the same at seeds 2 and 3;
residual digits are not recorded, only the derived facts.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from opteleport import cli  # noqa: E402


def derived(seed: int) -> dict:
    out = {}
    for label, argv, doc in workloads.ladder_jobs(seed):
        code, text = workloads.run_cli(cli, argv, doc)
        if code != 0:
            raise SystemExit(f"{label}: exit code {code}")
        out[label] = json.loads(text)["certificate"]
    return out


def main() -> None:
    recorded = derived(1)
    for seed in (2, 3):
        for label, fields in derived(seed).items():
            problems: list[str] = []
            workloads.compare_fields(recorded[label], fields, "", problems)
            if problems:
                raise SystemExit(f"seed {seed}, {label}: {problems}")
    with open(workloads.LADDER_EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} entries to {workloads.LADDER_EXPECTED}")


if __name__ == "__main__":
    main()
