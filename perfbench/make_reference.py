"""Write the reference CSVs that the paper_tables workload is checked against.

    python3 perfbench/make_reference.py

Runs both suites once for every input variant and writes each suite's table
to ``perfbench/reference/``.  Run it only at a commit whose results are the
reference: a later run overwrites what the check compares against.
"""

import csv
import os

import run

if __name__ == "__main__":
    run.prepare()
    from workloads import PaperTables, Round

    os.makedirs(PaperTables.REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for variant in range(PaperTables.VARIANTS):
        tables = PaperTables(variant, run.OUT_DIR)
        codes = {key: code for key, (code, _) in tables.produce(Round()).items()}
        if any(code != 0 for code in codes.values()):
            raise SystemExit(f"variant {variant}: bench exit codes {codes}")
        for suite in tables.suites:
            with open(tables.reference_path(suite), "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows(tables.table(suite))
            print(f"wrote {tables.reference_path(suite)}")
