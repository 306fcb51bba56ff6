"""The `leibniz` command.

    leibniz census --dim N

writes one JSON object per census record to standard output, in the
library's fingerprint order.  If the reader closes the pipe first
(``leibniz census --dim 3 | head -1``), it stops there with status 1 and
writes nothing to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .census import MAX_CENSUS_DIM, census


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="leibniz")
    commands = parser.add_subparsers(dest="command", required=True)
    census_cmd = commands.add_parser(
        "census", help=f"every GF(2) Leibniz structure tensor of dimension 1..{MAX_CENSUS_DIM}"
    )
    census_cmd.add_argument("--dim", type=int, required=True)
    args = parser.parse_args(argv)

    try:
        result = census(args.dim)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        for record in result.records:
            sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
