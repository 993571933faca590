"""``python -m repro`` entry point."""

import gc

from repro.cli import main

if __name__ == "__main__":
    code = main()
    # What is still alive now lives until exit, the process-wide caches
    # above all; frozen, interpreter shutdown's collections skip it.
    gc.freeze()
    raise SystemExit(code)
