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

import pytest

from repro.common.fastpath import SLOW_PATH_ENV_VAR

os.environ["REPRO_CACHE"] = "off"


@pytest.fixture(params=["fast", "slow"])
def kernel(request, monkeypatch):
    """Run the test on the fast kernel, then on the reference one.

    Caches choose their layout when they are built, so build every
    structure inside the test body.
    """
    if request.param == "slow":
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
    else:
        monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)
    return request.param


def pytest_addoption(parser):
    """The options of the CI-only checks, which tier-1 skips.

    ``--differential-seed``: ``tests/test_differential.py`` runs its
    CI-sized variant at this seed; CI passes the commit hash.
    ``--reach``: ``tests/test_reach.py`` runs its entry-point slice.
    """
    parser.addoption(
        "--differential-seed",
        default=None,
        help="hex seed for the wide differential-fuzzing budget (skipped without it)",
    )
    parser.addoption(
        "--reach",
        action="store_true",
        help="run the entry-point reach check (tests/test_reach.py; skipped without it)",
    )
