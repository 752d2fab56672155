"""Traced ``gensim`` command line, for the subprocess jobs of a traced run.

Usage: ``python traced_cli.py DUMP JOB_ID GENSIM_ARGS...`` with ``src`` on
``PYTHONPATH``.  Behaves like the ``gensim`` console script, and writes the
spans it recorded to ``DUMP`` (see ``Tracer.dump``) before exiting.
"""

import sys
from time import perf_counter_ns

from tracing import JOB_SPAN, Tracer, gensim_modules, install


def main() -> int:
    dump, job_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.job_id = job_id
    start = perf_counter_ns()
    modules = gensim_modules()
    tracer.record("cli.import", start, perf_counter_ns())
    install(tracer, modules)
    try:
        return tracer.span(JOB_SPAN, modules["cli"].main)(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
