"""Pytest hooks: a reproducible hypothesis profile, and acceptance verdict
lines collected for the terminal summary."""

from hypothesis import settings

# the same examples on every run, and none replayed from an earlier one;
# per-test @settings still override the other fields
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_verdicts: list[str] = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)
