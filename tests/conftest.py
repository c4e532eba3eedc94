import sys

import pytest


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion pass/fail lines after the test run."""
    mod = next((m for name, m in sys.modules.items()
                if name.rsplit(".", 1)[-1] == "test_acceptance"), None)
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def workers(monkeypatch):
    """``use(n)`` runs ``autodiff.parallel_map`` on ``n`` threads for the rest
    of the test, with a pool of its own that the test's end shuts down."""
    from rvqtok import autodiff as ad
    own = []

    def shut():
        if own and ad._pool is not None:
            ad._pool.shutdown(wait=True)

    def use(n: int) -> None:
        shut()
        monkeypatch.setattr(ad, "WORKERS", n)
        monkeypatch.setattr(ad, "_pool", None)
        own.append(n)

    yield use
    shut()
