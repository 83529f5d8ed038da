#!/usr/bin/env python3
"""Run one benchmark workload of the hullforge pipeline.

    python3 benchmark/run.py --workload {dataset,train,design} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The first run builds the staged
inputs (about 3 min on 2 cores; see stage.py), then the measurement runs in a
child process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("dataset", "train", "design"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv: list[str]) -> int:
    parser().parse_args(argv)
    if not (ROOT / "src" / "hullforge" / "__init__.py").is_file():
        print(f"error: no hullforge sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stage
    staged = stage.ensure(ROOT)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    measured = subprocess.run([sys.executable, str(HERE / "measure.py"), *argv,
                               "--stage", str(staged)], env=env)
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
