"""Staged inputs for the ``train`` and ``design`` workloads.

The dataset and model stages of ``pipeline.pipeline_stages`` at
``config.smoke_config()``, built once per source version into
``.bench-work/stage-<config.cache_key>/`` at the root of the checkout, so a
change is always measured on inputs its own code built.  Nothing here is
timed: the workloads copy the staged directories into a fresh output
directory, and only that copy counts as set-up.
"""

from __future__ import annotations

import fcntl
import os
import shutil
import sys
import time
from pathlib import Path

from hullforge.config import cache_key, smoke_config
from hullforge.pipeline import pipeline_stages

STAGES = ("dataset", "train")


def stage_dir(root: Path) -> Path:
    return Path(root) / ".bench-work" / f"stage-{cache_key(smoke_config())}"


def ensure(root: Path) -> Path:
    """The staged directory for this source version, built if missing."""
    target = stage_dir(root)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.parent / "stage.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)     # one builder per checkout
        if not (target / "models").is_dir():
            tmp = target.with_name(target.name + ".tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            for name, run, _marker in pipeline_stages(smoke_config(), tmp):
                if name in STAGES:
                    start = time.perf_counter()
                    run()
                    print(f"staged {name} in {time.perf_counter() - start:.0f}s",
                          file=sys.stderr, flush=True)
            os.replace(tmp, target)
    return target
