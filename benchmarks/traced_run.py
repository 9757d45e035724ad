"""Run the ``bratsfuse`` CLI inside this process and write a JSON report.

Usage: python3 traced_run.py {plain|traced} REPORT.json CLI_ARG ...

``traced`` wraps the call sites listed in ``tracing.targets`` and records
spans, counts and tracemalloc peaks; ``plain`` runs the same command without
them, giving the untraced wall time that the tracing overhead is measured
against. ``run.py`` starts each mode in a fresh process, so both begin with
the same cold allocator and neither inherits memory the other freed.
The package is imported before the clock starts, so wall times exclude it.
"""

import contextlib
import dataclasses
import io
import json
import sys
import time
import traceback
import tracemalloc
import types

import tracing


def import_bratsfuse() -> types.SimpleNamespace:
    import bratsfuse.cli
    import bratsfuse.fusion
    import bratsfuse.metrics
    import bratsfuse.nifti
    import bratsfuse.pipeline

    return types.SimpleNamespace(
        cli=bratsfuse.cli, fusion=bratsfuse.fusion, metrics=bratsfuse.metrics,
        nifti=bratsfuse.nifti, pipeline=bratsfuse.pipeline)


def call_cli(bf, args: list[str]) -> int:
    """Exit code of the CLI run in-process; its stdout is discarded. An
    exception escaping the CLI is printed and counts as exit code 1, as it
    would for the installed command."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            bf.cli.main.main(args=args, prog_name="bratsfuse", standalone_mode=False)
        except SystemExit as e:
            return int(e.code or 0)
        except Exception:
            traceback.print_exc()
            return 1
    return 0


def main() -> int:
    mode, report, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    bf = import_bratsfuse()
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        if mode == "traced":
            tracemalloc.start()
            stack.callback(tracemalloc.stop)
            stack.enter_context(tracing.patched(tracer, bf))
        start = time.perf_counter()
        rc = call_cli(bf, args)
        wall = time.perf_counter() - start
    with open(report, "w") as fh:
        json.dump({
            "rc": rc,
            "wall_s": wall,
            "spans": [dataclasses.asdict(s) for s in tracer.spans],
            "counts": dict(tracer.counts),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
