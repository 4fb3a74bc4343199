"""Command line interface.

``colorbasis run --config cfg.yaml`` executes the whole pipeline; each
stage is also available as its own subcommand for partial re-runs from
cached artifacts.  ``colorbasis demo --output-dir DIR`` materializes the
bundled synthetic dataset plus a ready-to-run config.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .demo import write_demo
from .errors import ConfigError, DataError, StageError
from .pipeline import STAGE_ORDER, run_pipeline, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _add_run_args(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument(
        "--output-dir", default=None, help="override the output directory (relative to the working directory)"
    )
    parser.add_argument("--jobs", type=int, default=None, help="worker pool size")
    parser.add_argument("--verbose", action="store_true", help="chatty logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorbasis",
        description="rank color vocabulary by aggregated cross-lingual evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline")
    _add_run_args(run)

    for stage in STAGE_ORDER:
        p = sub.add_parser(stage, help=f"run only the {stage} stage")
        _add_run_args(p)

    demo = sub.add_parser("demo", help="write the bundled synthetic dataset")
    demo.add_argument("--output-dir", required=True, help="where to write the dataset")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "demo":
            config_path = write_demo(args.output_dir)
            print(f"demo dataset written; config at {config_path}")
            return EXIT_OK

        overrides = {"output_dir": args.output_dir, "jobs": args.jobs}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            manifest = run_pipeline(cfg)
            print(f"pipeline complete; outputs in {cfg.output_dir}")
            top = manifest["stages"]["aggregate"]["counts"].get("top_color")
            if top:
                print(f"top-ranked color: {top}")
        else:
            run_stage(cfg, args.command)
            print(f"stage {args.command} complete; outputs in {cfg.output_dir}")
        return EXIT_OK
    except Exception as e:
        cause = e.cause if isinstance(e, StageError) else e
        if isinstance(cause, ConfigError):
            kind, code = "config error", EXIT_CONFIG
        elif isinstance(cause, (DataError, OSError)):
            kind, code = "data error", EXIT_DATA
        else:
            kind, code = "internal error", EXIT_INTERNAL
        print(f"{kind}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
