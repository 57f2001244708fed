"""Property tests draw the same examples on every run.

The profile seeds hypothesis from each test's own definition (and so keeps
no example database), which leaves the suite's outcome a function of the
code alone.

``--full-validation`` routes the internal ``_trusted`` constructors through
the checking public ones for the whole session; the ``full_validation``
fixture does the same for one test.
"""

import pytest
from hypothesis import settings

import helpers

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def pytest_addoption(parser):
    parser.addoption("--full-validation", action="store_true",
                     help="check every state and density matrix the ops build, "
                          "as the public constructors do")


@pytest.fixture(scope="session", autouse=True)
def _session_validation(request):
    if request.config.getoption("--full-validation"):
        with helpers.full_validation():
            yield
    else:
        yield


@pytest.fixture
def full_validation():
    with helpers.full_validation():
        yield
