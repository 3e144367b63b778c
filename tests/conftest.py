"""Shared pytest hooks and fixtures.

The acceptance tests each record one ``[AC#] PASS/FAIL — detail`` line;
pytest captures in-test prints, so a hook re-emits the collected lines
after the run, where they are always visible.
"""
import sys

import numpy as np
import pytest


class CountingBasis:
    """A basis that counts the rows its jacobian is evaluated on."""

    def __init__(self, basis):
        self._basis = basis
        self.jacobian_rows = 0

    def __getattr__(self, name):
        return getattr(self._basis, name)

    def jacobian(self, Z):
        Z = np.asarray(Z, dtype=float)
        self.jacobian_rows += int(np.prod(Z.shape[:-1]))
        return self._basis.jacobian(Z)


@pytest.fixture
def counting_basis():
    """The :class:`CountingBasis` wrapper, to wrap a basis under test."""
    return CountingBasis


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
