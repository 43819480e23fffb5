"""Shared fixtures: the service suite runs under the lock-order watchdog.

The service layer is where most real lock nesting happens (session handles,
the budget book, the translator's flights), so this is the suite where
dynamic edges the static APX003 rule cannot resolve actually occur.
"""

import pytest

from repro.analysis.runtime import LockOrderWatchdog


@pytest.fixture(autouse=True, scope="package")
def lock_order_watchdog():
    """Record-mode watchdog over every lock the service tests create."""
    watchdog = LockOrderWatchdog(mode="record")
    watchdog.install()
    yield watchdog
    watchdog.uninstall()
    inversions = [v for v in watchdog.violations if v.kind == "inversion"]
    if inversions:
        pytest.fail(
            "lock-order inversions observed during the service suite:\n"
            + "\n".join(v.render() for v in inversions)
        )
