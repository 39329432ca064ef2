"""Run one ``timps`` CLI invocation with a span around every call of the
functions listed in ``spans.LAYERS``.

    PYTHONPATH=src python3 bench/trace_shim.py --spans FILE --job ID -- ARGS...

``ARGS`` are the ``timps`` command-line arguments. The shim imports ``timps``,
replaces each listed function by a recording wrapper in every ``timps.*``
module that binds it (modules bind them with ``from .x import y``), and calls
``timps.cli.main(ARGS)``. Spans stay in memory and are written to ``FILE`` as
JSON when the invocation ends. The exit code is the CLI's, or 3 when a listed
function cannot be found.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from spans import OTHER_ERROR, RETURNED, SPAN_NAMES, TIMPS_ERROR

STALE_EXIT = 3


class StaleTraceError(LookupError):
    """A listed function no longer exists under its listed name."""


class Recorder:
    """Spans of one process, as rows ``[name, start, end, parent, status]``."""

    def __init__(self, timps_error: type):
        self.rows: list = []
        self.stack = [-1]
        self.window_bytes = 0
        self._timps_error = timps_error

    def wrap(self, index: int, fn):
        rows, stack, clock = self.rows, self.stack, time.perf_counter_ns
        timps_error = self._timps_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [index, clock(), 0, stack[-1], RETURNED]
            stack.append(len(rows))
            rows.append(row)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                row[4] = TIMPS_ERROR if isinstance(exc, timps_error) else OTHER_ERROR
                raise
            finally:
                stack.pop()
                row[2] = clock()

        return traced

    def count_window_bytes(self, fn):
        """Add the bytes of the arrays ``window_density_matrix(K, T, n)``
        must produce: the d^n x chi x chi amplitude string and the
        d^n x d^n density matrix, complex128. Computed from shapes."""

        @functools.wraps(fn)
        def counted(K, T, n, *args, **kwargs):
            d, chi = np.shape(getattr(K, "mats", K))[:2]
            dim = d**n
            self.window_bytes += 16 * (dim * chi * chi + dim * dim)
            return fn(K, T, n, *args, **kwargs)

        return counted


def install(recorder: Recorder) -> None:
    """Replace every listed function, in every ``timps`` module binding it."""
    import timps.cli  # noqa: F401  (imports every layer and binds its names)

    modules = [m for name, m in sys.modules.items()
               if name == "timps" or name.startswith("timps.")]
    for index, span_name in enumerate(SPAN_NAMES):
        layer, _, path = span_name.partition(".")
        *classes, attr = path.split(".")
        owner = sys.modules.get(f"timps.{layer}")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            raise StaleTraceError(f"timps.{span_name} not found")
        fn = original
        if span_name == "transfer.window_density_matrix":
            fn = recorder.count_window_bytes(fn)
        wrapper = recorder.wrap(index, fn)
        if classes:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span dump to write")
    parser.add_argument("--job", type=int, required=True, help="job id")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="-- followed by the timps arguments")
    opts = parser.parse_args(argv)
    timps_args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    from timps.errors import TimpsError

    recorder = Recorder(TimpsError)
    try:
        install(recorder)
    except StaleTraceError as exc:
        print(f"stale trace: {exc}", file=sys.stderr)
        return STALE_EXIT

    import timps.cli

    try:
        return timps.cli.main(timps_args)
    finally:
        with open(opts.spans, "w", encoding="utf-8") as fh:
            json.dump({"job": opts.job, "names": SPAN_NAMES,
                       "spans": recorder.rows,
                       "window_bytes": recorder.window_bytes}, fh)


if __name__ == "__main__":
    sys.exit(main())
