"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (every finding suppressed inline with a reason),
1 findings remain, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import lint_paths
from .report import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: AST-based invariant linter (DET "
                    "determinism, PKL pickle-safety, FRZ immutability, "
                    "PUR stage purity, OBS observability containment)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--rules", metavar="SELECT", default=None,
                        help="comma-separated families or rule IDs to "
                             "run (e.g. DET,PKL201); default: all")
    parser.add_argument("--verbose", action="store_true",
                        help="also list suppressed findings")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    rules = args.rules.split(",") if args.rules else None
    result = lint_paths(args.paths, rules=rules)

    if args.output:
        Path(args.output).write_text(
            json.dumps(render_json(result), indent=2) + "\n",
            encoding="utf-8")
    if args.json:
        print(json.dumps(render_json(result), indent=2))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
