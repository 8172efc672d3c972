"""Shared benchmark configuration.

Every benchmark module emits a paper-style report table at teardown; the
corpora are scaled down from the paper's testbed (a 2003 C++/Berkeley DB
system on a 662 MHz machine) to laptop-Python sizes — DESIGN.md explains
why the *shapes* survive the substitution even though absolute numbers
do not.
"""

import pytest


def pytest_configure(config):
    # Allocation sequences across a full benchmark run are deterministic,
    # so cyclic-GC collections land at *fixed* points — and a gen-2 pause
    # (tens of ms with eight module-scope indexes resident) that happens
    # to fall inside one query's three timed rounds reads as a 4-5x
    # regression of that query on every run.  Keep the collector off
    # during timed rounds (pytest-benchmark re-enables it in between).
    config.option.benchmark_disable_gc = True


@pytest.fixture(scope="module", autouse=True)
def emit_module_report(request):
    """Emit the module's ``REPORT`` after its benchmarks ran."""
    yield
    report = getattr(request.module, "REPORT", None)
    if report is not None and report.rows:
        report.emit()
