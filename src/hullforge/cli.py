"""Command-line front door for the pipeline.

Exit codes: 0 success, 1 usage/configuration, 2 missing upstream artifact,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import (ConfigurationError, DependencyError, DomainError,
                     FeasibilityError, GenerationError, RepresentationError,
                     TrainingError)
from .pipeline import (SAMPLE_MODES, cmd_evaluate, cmd_gen_dataset,
                       cmd_optimize, cmd_run_all, cmd_sample, cmd_train)


def _common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="pipeline config file (defaults used if omitted)")
    parser.add_argument("--out", type=Path, default=Path("runs/desk"),
                        help="pipeline output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullforge",
        description="dataset generation, surrogate/diffusion training, guided "
                    "sampling, NSGA-II baseline and evaluation for parametric "
                    "hull design")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="build the hull dataset")
    _common(p)

    p = sub.add_parser("train", help="train surrogate / diffusion models")
    _common(p)
    p.add_argument("--which", default="all",
                   choices=("regressors", "classifier", "diffusion", "all"))

    p = sub.add_parser("sample", help="draw guided diffusion samples for a case")
    _common(p)
    p.add_argument("--case", required=True)
    p.add_argument("--mode", default="full", choices=SAMPLE_MODES)
    p.add_argument("-n", type=int, default=None, help="sample count")

    p = sub.add_parser("optimize", help="run the NSGA-II baseline for a case")
    _common(p)
    p.add_argument("--case", required=True)

    p = sub.add_parser("evaluate", help="audit samples and build reports")
    _common(p)
    p.add_argument("--case", required=True)

    p = sub.add_parser("run-all", help="full pipeline over every bundled case")
    _common(p)
    return parser


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "gen-dataset":
            out = cmd_gen_dataset(cfg, args.out)
        elif args.command == "train":
            start = time.perf_counter()
            out = cmd_train(cfg, args.out, args.which)
            # wall-clock goes to the terminal, never into the artifact tree
            print(f"train finished in {time.perf_counter() - start:.1f}s",
                  file=sys.stderr)
        elif args.command == "sample":
            out = cmd_sample(cfg, args.out, args.case, args.mode, args.n)
        elif args.command == "optimize":
            out = cmd_optimize(cfg, args.out, args.case)
        elif args.command == "evaluate":
            out = cmd_evaluate(cfg, args.out, args.case)
        else:
            outs = cmd_run_all(cfg, args.out)
            for o in outs:
                print(o)
            return 0
        print(out)
        return 0
    except (ConfigurationError, RepresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, FeasibilityError, GenerationError, TrainingError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
