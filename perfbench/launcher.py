"""Run the kgmarkov command line with the benchmark's spans installed.

    python perfbench/launcher.py <kgmarkov arguments>

The traced CLI workloads start this instead of ``python -m kgmarkov.cli``.
It wraps kgmarkov's public functions (see spans.py), calls
``kgmarkov.cli.main`` and appends the spans as JSON lines to the file named
by PERFBENCH_SPANS.  PERFBENCH_PARENT and PERFBENCH_OP carry the parent's
span id and op id so the child's spans join the parent's tree.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402


def main() -> int:
    op = os.environ.get("PERFBENCH_OP")
    tracer = spans.Tracer(parent=os.environ.get("PERFBENCH_PARENT"),
                          op=int(op) if op else None)
    from kgmarkov import cli

    spans.install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.write_jsonl(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
