"""One CLI invocation in a fresh interpreter, as the ``levycrm`` script runs it.

    python3 bench/child.py STAMP [SPANS] -- <levycrm arguments>

Imports ``levycrm.cli``, stamps the import-done time on CLOCK_MONOTONIC
(which the parent shares), runs ``cli.main`` and writes the stamp file.
With a SPANS path, the tracer wraps the package's functions after the
import, so start-up is never traced, and the spans go to that file.
"""

import json
import sys
import time

import levycrm.cli as cli

imported = time.monotonic()


def run() -> int:
    split = sys.argv.index("--")
    paths, argv = sys.argv[1:split], sys.argv[split + 1:]
    tracer = None
    if len(paths) > 1:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(paths[1])
    with open(paths[0], "w", encoding="utf-8") as f:
        json.dump({"imported": imported, "main_s": main_s, "module": cli.__file__}, f)
    return rc


if __name__ == "__main__":
    sys.exit(run())
