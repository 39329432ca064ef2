"""Rebuild ``run.ORACLE_SEED_POOL``: the ``oracle-check`` seeds that draw
exactly ``run.ORACLE_HEAVY`` density-matrix windows of 1024x1024 (d=4, n=5).

    python3 bench/oracle_seeds.py [--first 0] [--count 300]

Each seed below ``first + count`` runs ``oracle-check --gauge-trials 0`` (its
window draws do not depend on the gauge trials, which come after them). The
seeds that qualify are printed as a Python tuple, with a histogram of the
counts on standard error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import os
import shutil
import subprocess
import sys

import run


def heavy_windows(seed: int, out) -> int:
    subprocess.run([sys.executable, "-m", "timps.cli", "oracle-check", "--seed", str(seed),
                    "--gauge-trials", "0", "--out", str(out)],
                   env=dict(os.environ, PYTHONPATH=str(run.SRC)), check=True,
                   stdout=subprocess.DEVNULL)
    with open(out / "oracle-check.csv", encoding="utf-8") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return sum(r["kind"] == "oracle" and r["d"] == "4" and r["n"] == "5" for r in rows)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=300)
    args = p.parse_args()
    out = run.OUT / f"oracle-seeds-{os.getpid()}"
    counts = {}
    try:
        for seed in range(args.first, args.first + args.count):
            counts[seed] = heavy_windows(seed, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(dict(sorted(collections.Counter(counts.values()).items())), file=sys.stderr)
    print(tuple(s for s, c in counts.items() if c == run.ORACLE_HEAVY))
    return 0


if __name__ == "__main__":
    sys.exit(main())
