import os

import pytest

from ortho7.field import FieldSpec, build_field, field_for


@pytest.fixture(scope="session")
def f5():
    return build_field(FieldSpec(5, 1, (0, 1)))


@pytest.fixture(scope="session")
def f11():
    return field_for(11)


@pytest.fixture(scope="session")
def f13():
    return field_for(13)


@pytest.fixture(scope="session")
def f25():
    return field_for(25)


@pytest.fixture(scope="session")
def f27():
    return field_for(27)


@pytest.fixture(scope="session")
def f49():
    return field_for(49)


@pytest.fixture
def fork_log(monkeypatch):
    """The pids of the processes this one forks during the test: os.fork,
    recorded (the forks are real)."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def no_child_left():
    """A check that this process has no child, running or unreaped, that
    works for raw forks too (multiprocessing.active_children() sees only
    its own processes)."""
    def check() -> bool:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False
    return check
