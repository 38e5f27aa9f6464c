"""Write reference.json: the eigenvalues of the default seed's first batches.

    python3 perfbench/make_reference.py

Runs every workload's first batches for seed DEFAULT_SEED without a time
limit and stores each operation's eigenvalues, each FEM one first checked
against eigsh (null where the operation raised or a number disagreed
with an independent oracle).  A benchmark run with that seed compares
every eigenvalue it computes against this file to 1e-10 relative, so a
change that alters a number beyond round-off shows as a failed operation.
Regenerate it only when a change is meant to alter the numbers.
"""

from __future__ import annotations

import json

from tracing import Tracer
from worker import REFERENCE, REFERENCE_RTOL
from workloads import WORKLOADS, batch_rng, fem_eigenvalue_problems

DEFAULT_SEED = 0
# enough batches to cover a run several times faster than today's code
BATCHES = {"shell_sweep": 48, "theorem_sweep": 12, "web_chain": 8, "shape_derivative": 3}


def main() -> None:
    data = {"seed": DEFAULT_SEED, "rtol": REFERENCE_RTOL, "workloads": {}}
    with Tracer() as tracer:
        for name, wl in WORKLOADS.items():
            rows = []
            for b in range(BATCHES[name]):
                row = []
                for op in wl.batch(batch_rng(DEFAULT_SEED, name, b)):
                    tracer.solves.clear()
                    tracer.recording = True
                    try:
                        out = wl.run(op)
                    except Exception as err:
                        print(f"{name} batch {b}: {type(err).__name__}: {err}")
                        row.append(None)
                        continue
                    finally:
                        tracer.recording = False
                    wrong, unmet, _ = wl.check(op, out)
                    wrong += fem_eigenvalue_problems(tracer.solves)
                    row.append(None if wrong else [float(v) for v in wl.eigenvalues(out)])
                    if wrong or unmet:
                        print(f"{name} batch {b}: {wrong + unmet}")
                rows.append(row)
            data["workloads"][name] = rows
            print(f"{name}: {sum(v is not None for r in rows for v in r)} operations stored")
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
