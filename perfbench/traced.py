"""Traced child: run one benchmark step in-process with every layer wrapped.

Usage, from the repository root with src/ on PYTHONPATH:

    python3 perfbench/traced.py SPANS.npz cli ARGS...      # fedpact.cli.main(ARGS)
    python3 perfbench/traced.py SPANS.npz oracle ARGS...   # oracle_step.main(ARGS)

The import of the package is the top-level span ``cli.import`` (set-up); the
step itself is the top-level span ``cli.main`` or ``oracle.main``.  Spans are
written to SPANS.npz when the step returns; the exit code is the step's.
"""
from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    rec = tracer.Recorder()
    with rec.span(tracer.IMPORT_SPAN):
        import fedpact.cli
        if kind == "oracle":
            import oracle_step
    tracer.install(rec)
    entry = fedpact.cli.main if kind == "cli" else oracle_step.main
    with rec.span(f"{kind}.main"):
        code = entry(args)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
