"""Run the ``repro`` CLI in this process, optionally recording spans.

    python3 perfbench/daemon.py SPANS_DIR|- serve SPOOL --workers 2

With a spans directory, the layers' entry points are wrapped before the
CLI starts (see ``spans.py``) and every finished span is appended to
``SPANS_DIR/<pid>.jsonl``.  With ``-`` the CLI runs unmodified.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    spans_dir, cli_args = argv[0], argv[1:]
    if spans_dir != "-":
        import spans

        spans.install(spans.Recorder(spans_dir, root_layer="serve", main=False))
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
