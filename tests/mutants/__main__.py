"""Run the named mutants: ``python -m tests.mutants [--all] [NAME ...]``.

Each mutant is applied to a temporary copy of ``src/``.  By default only its
named killer runs; ``--all`` runs the whole tier-1 suite (up to its first
failure) per mutant.  Exits 1 if any mutant survives.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from . import MUTANTS, first_failure, run_mutant


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.mutants")
    parser.add_argument("--all", action="store_true", help="run the whole tier-1 suite per mutant")
    parser.add_argument("names", nargs="*", help="mutants to run (default: every one)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = 0
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        with tempfile.TemporaryDirectory() as workdir:
            result = run_mutant(mutant, Path(workdir), whole_suite=args.all)
        if result.returncode == 1:
            print(f"{mutant.name}: killed by {first_failure(result.stdout)}", flush=True)
        else:
            survivors += 1
            print(f"{mutant.name}: SURVIVED (pytest exit {result.returncode})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
