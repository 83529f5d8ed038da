#!/usr/bin/env python3
"""Build (or resume) the desk-scale artifact set used by the acceptance suite.

Runs dataset generation, model training, sampling, optimization and
evaluation for all five bundled cases at the default configuration, into
.acceptance-cache/desk-<config hash>-<source hash>/.  Every stage is skipped
if its artifact directory already exists, so interrupted builds resume.
"""

import sys
import time
from pathlib import Path

from hullforge.config import PipelineConfig, cache_key
from hullforge.pipeline import pipeline_stages


def main() -> int:
    cfg = PipelineConfig()
    out = Path(__file__).resolve().parent.parent / ".acceptance-cache" / \
        f"desk-{cache_key(cfg)}"
    print(f"building desk artifacts in {out}")

    for name, run, marker in pipeline_stages(cfg, out):
        if marker.exists():
            print(f"[skip] {name}")
            continue
        start = time.time()
        run()
        print(f"[done] {name} in {time.time() - start:.0f}s", flush=True)
    print("artifact build complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
