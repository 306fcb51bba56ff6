"""The `leibniz` command.

    leibniz census --dim N

writes one JSON object per census record to standard output, in the
library's fingerprint order.
"""

from __future__ import annotations

import argparse
import json
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
    for record in result.records:
        sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
