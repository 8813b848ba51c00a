"""Record the result fingerprint of every workload on every input set.

    python3 perfbench/record_fingerprints.py

Runs each workload once per input set (untraced, one fresh process each),
requires every check and every oracle spot check to pass, and writes
perfbench/fingerprints.json.  Run it only at a commit whose verdicts are
the reference: a later run whose fingerprint differs fails.
"""

import json
import shutil
import sys
import time

from run import (
    FINGERPRINTS, INPUT_SETS, OUT, RUN_LIMIT_S, WORKLOAD_NAMES, environment, fingerprint, make_inputs, spawn,
)


def main():
    prints = {w: {} for w in WORKLOAD_NAMES}
    failures = []
    for workload in WORKLOAD_NAMES:
        for input_set in range(INPUT_SETS):
            out = OUT / f"record-{workload}-{input_set}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            with open(out / "inputs.json", "w") as fh:
                json.dump(make_inputs(workload, input_set), fh)
            deadline = time.monotonic() + RUN_LIMIT_S
            oracle, _ = spawn("oracle", out / "inputs.json", out / "oracle.json", deadline)
            rep, _ = spawn("run", out / "inputs.json", out / "run.json", deadline)
            bad = [r["name"] for r in oracle["records"] + rep["records"] if not r["passed"]]
            if bad:
                failures.append((workload, input_set, bad))
            prints[workload][str(input_set)] = fingerprint(rep["records"])
            print(workload, input_set, prints[workload][str(input_set)], f"{rep['wall_s']:.2f} s", bad or "", flush=True)
    if failures:
        print(f"not recorded: failing checks {failures}", file=sys.stderr)
        return 1
    with open(FINGERPRINTS, "w") as fh:
        json.dump({"environment": environment(None), "fingerprints": prints}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
