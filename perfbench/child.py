"""One fresh process running one ``aerialfl`` CLI experiment.

Usage::

    python3 perfbench/child.py RESULT.json [--setup-only FN] [--trace SPANS.json] -- CLI-ARGS...

Imports ``aerialfl`` from the ``src`` directory next to this one, runs
``aerialfl.cli.main`` on the given arguments and writes RESULT.json with
CLOCK_MONOTONIC readings that the parent compares with its own: when the
last set-up function (``load_config``, then ``load_dataset`` if called)
returned, and when ``main`` returned.  ``--setup-only FN`` stops the process
once ``FN`` has returned.  ``--trace`` installs the tracer, writes every
span to SPANS.json and adds the per-layer stats to RESULT.json.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(BaseException):
    """Ends a set-up probe; a BaseException so the CLI's error boundary,
    which catches Exception, lets it through."""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result", type=Path)
    parser.add_argument("--setup-only", default=None)
    parser.add_argument("--trace", type=Path, default=None)
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    sys.path.insert(0, str(ROOT / "src"))
    from aerialfl import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"aerialfl imported from {cli.__file__}, not from {ROOT / 'src'}")

    marks: dict[str, float] = {}

    def mark_setup(fn):
        def hooked(*a, **k):
            result = fn(*a, **k)
            marks["setup_end"] = time.monotonic()
            if args.setup_only == fn.__name__:
                raise SetupDone
            return result

        return hooked

    for name in ("load_config", "load_dataset"):
        setattr(cli, name, mark_setup(getattr(cli, name)))

    run = cli.main
    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    result: dict = {}
    try:
        result["rc"] = run(cli_args)
    except SetupDone:
        result["rc"] = None
    result["end"] = time.monotonic()
    result.update(marks)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["stats"] = tracer.stats()
        tracer.write(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
