"""Fixtures shared by the test modules."""

import functools
import os

import pytest

from sbscache import sim
from sbscache.classify import classify_and_weigh


class ProcessLog:
    """Lines written by the test and by every worker process forked while it runs.

    The file is opened with O_APPEND before any fork, so each ``write`` from
    any process lands whole at the end of the file; ``lines`` reads them back
    in the order they were written.
    """

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def write(self, line: str) -> None:
        os.write(self.fd, f"{line}\n".encode())

    def lines(self) -> list[str]:
        return self.path.read_text().splitlines()


@pytest.fixture
def process_log(tmp_path):
    log = ProcessLog(tmp_path / "process.log")
    yield log
    os.close(log.fd)


@pytest.fixture
def one_matern_iteration(monkeypatch):
    """Cap every Matern classification at one iteration, so a pair at mid distance fails.

    The simulator calls ``sim.classify_and_weigh``, and worker processes
    forked while the test runs inherit the patch.
    """
    monkeypatch.setattr(
        sim, "classify_and_weigh", functools.partial(classify_and_weigh, max_iterations=1)
    )
