"""A fresh process readying a mining job: the set-up every ``repro mine`` pays.

Imports what the ``repro`` command line imports and opens a fresh pattern
store.  Prints ``ready`` once the job could start.

Usage: ``python3 startup.py <store path>``
"""

import sys


def main() -> int:
    store_path = sys.argv[1]
    import repro.cli  # noqa: F401  (the import cost is the point)
    from repro.store.pattern_store import PatternStore

    PatternStore(store_path).close()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
