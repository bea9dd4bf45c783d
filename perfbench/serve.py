"""Run one ``stsyn serve`` instance for the ``service-mix`` workload.

The service runs in this process, apart from the load generator, with one
local worker slot per race.  It picks a free port and prints
``stsyn serve: listening on HOST:PORT``; SIGTERM drains it and exits.

    python3 perfbench/serve.py --data-dir DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import run_service  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    args = parser.parse_args()
    run_service(
        args.data_dir,
        port=0,
        max_concurrent=2,
        n_workers=1,
        log=lambda line: print(line, flush=True),
    )


if __name__ == "__main__":
    main()
