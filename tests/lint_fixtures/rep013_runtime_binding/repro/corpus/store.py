"""Known-bad pool use only a whole-program check can see: the submitted
callable *is* a module-level def, but it calls a name bound only at
runtime.

``configure()`` installs ``handler`` via ``global`` — in the parent
process, after import.  A pool worker re-imports this module fresh and
finds no ``handler`` at all: the submission detonates remotely with a
``NameError`` that no look at the submission site alone can predict.
"""

from ..perf.batch import pooled_map


def configure(fn):
    global handler
    handler = fn


def check_entry(entry):
    # BUG: `handler` has no module-level binding a worker import would
    # provide; it exists only because configure() ran in the parent.
    return handler(entry)


def check_all(entries, workers):
    return list(pooled_map(check_entry, entries, workers=workers))
