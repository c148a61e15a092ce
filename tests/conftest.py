"""Unit tests run hermetically: no persistent result-store reads/writes.

The harness's default store would otherwise read ``.repro_cache/`` from
the working directory.  Cache keys hash configuration and workload
parameters but not simulator *code*, so a stale on-disk entry written
before a timing-model change could make assertions pass or fail against
numbers the current code no longer produces — and every pytest run would
pollute the checkout.  The disk layer has its own coverage against
temporary directories in ``tests/test_engine.py``.
"""

import os

os.environ["REPRO_CACHE"] = "off"


def pytest_addoption(parser):
    """``--differential-seed``: run the wide differential budget at this seed.

    ``tests/test_differential.py`` skips its CI-sized variant unless the
    option is given; CI passes the commit hash.
    """
    parser.addoption(
        "--differential-seed",
        default=None,
        help="hex seed for the wide differential-fuzzing budget (skipped without it)",
    )
