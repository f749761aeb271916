"""CLI: ``python -m repro.analysis [options] [paths...]``.

Exit codes: 0 — clean; 1 — at least one non-suppressed finding;
2 — usage error or unparsable input file.  Dead-suppression warnings
never affect the exit code.  The ``repro-analyze`` console script
(pyproject) routes here.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import all_rules, run_analysis

_DEFAULT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Check the repro engine contracts: snapshot completeness and "
            "round-trip dataflow, hot-path purity, determinism, purge "
            "safety, and asyncio safety (await-atomicity, blocking calls, "
            "task/resource hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    paths: List[str] = options.paths or _DEFAULT_PATHS
    report = run_analysis(paths)
    if report.checked_files == 0 and not report.parse_errors:
        print(f"no python files found under: {', '.join(paths)}", file=sys.stderr)
        return 2
    print(report.render(options.format))
    if report.parse_errors:
        for path, error in report.parse_errors:
            print(f"parse error: {path}: {error}", file=sys.stderr)
        return 2
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
