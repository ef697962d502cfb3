"""Run every experiment and render the results.

Usage::

    python -m repro.bench.run_all                # all experiments, stdout
    python -m repro.bench.run_all fig6 fig13     # a subset
    python -m repro.bench.run_all --markdown out.md
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiments


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's experiments at laptop scale."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"subset to run (default: all of {sorted(ALL_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write results as markdown to PATH",
    )
    args = parser.parse_args(argv)

    names = args.experiments or None
    results = run_experiments(names)
    for result in results:
        print(result.format())
        print()
    if args.markdown:
        with open(args.markdown, "w") as handle:
            for result in results:
                handle.write(result.to_markdown())
                handle.write("\n\n")
        print(f"markdown written to {args.markdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
