"""Host-time benchmark for paypipe.

    python3 perfbench/run.py --workload payroll --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It measures the paypipe sources under
``src/`` of that checkout and exits with status 2, printing no result, when
they are missing. See perfbench/README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "paypipe" / "__init__.py").is_file():
        print(f"perfbench: no paypipe sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paypipe

    if Path(paypipe.__file__).resolve().parent != SRC / "paypipe":
        print(f"perfbench: imported paypipe from {paypipe.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import measure

    return measure.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
