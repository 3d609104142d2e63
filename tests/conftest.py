from hypothesis import settings

# property tests draw the same examples on every run, with no time limit per
# example and no example database written to disk
settings.register_profile("greencell", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("greencell")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
