import pytest
from hypothesis import settings

from greencell.optimal import cap_tail

# property tests draw the same examples on every run, with no time limit per
# example and no example database written to disk
settings.register_profile("greencell", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("greencell")

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def _uncached_cap_tail():
    # each test builds its own cap tail, so kernel counts do not depend on
    # which test ran before
    cap_tail.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
