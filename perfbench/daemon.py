"""Launch ``repro serve`` with the benchmark's span wrappers installed.

    python perfbench/daemon.py --spans OUT.json -- serve --port 0 ...

Installs the library and service wrappers of :mod:`perfbench.layers` in
this process, runs the normal ``python -m repro`` entry point with the
arguments after ``--``, and writes every recorded span to ``OUT.json``
once the daemon has shut down (SIGTERM).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent),
                str(Path(__file__).resolve().parent.parent / "src")]

from perfbench import layers  # noqa: E402
from perfbench.spans import Recorder, dump  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        raise SystemExit("usage: daemon.py --spans OUT.json -- serve ...")
    spans_path, arguments = argv[1], argv[3:]
    recorder = Recorder()
    layers.install(recorder, layers.LIBRARY_PATCHES)
    request_ids = itertools.count(1)
    for target, name, tag in layers.SERVICE_PATCHES:
        # Each handled request is one op; its nested spans inherit the id.
        op = ((lambda args, kwargs: next(request_ids))
              if name == "service.handle" else None)
        recorder.patch(target, name, tag=tag, op=op)

    from repro.__main__ import main as repro_main

    try:
        return repro_main(arguments)
    finally:
        recorder.unpatch()
        dump(recorder.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
