import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cold_factor_memo():
    """An empty factorization memo, before and after the test: a test that
    patches or counts a step of the factoring route must see that step
    run, not a list an earlier test left behind, and must leave no list
    built by its patched route for later tests."""
    import mtcodes.upoly as upoly

    upoly._monic_factors.cache_clear()
    yield
    upoly._monic_factors.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        label, status = RESULTS[num]
        terminalreporter.write_line(f"criterion {num:2d} {status} - {label}")
