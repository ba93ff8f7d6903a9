import random
import signal

import pytest

from polycert.poly import Polynomial


def random_polynomial(rng: random.Random, min_deg: int = 2, max_deg: int = 8,
                      coeff_bound: int = 20) -> Polynomial:
    """Random integer polynomial with a positive leading coefficient."""
    n = rng.randint(min_deg, max_deg)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
    coeffs.append(rng.randint(1, coeff_bound))
    return Polynomial(coeffs)


@pytest.fixture(scope="session")
def fuzz_corpus():
    """1000 random polynomials, degrees 2..8, coefficients in [-20, 20]."""
    rng = random.Random(20260810)
    return [random_polynomial(rng) for _ in range(1000)]


class DeadlineExceeded(BaseException):
    """Raised by the deadline fixture's alarm; a BaseException, so that code
    under test that catches Exception does not swallow it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    # A test stopped by its deadline is reported as an ordinary failure
    # without a traceback: when the alarm lands in a tight loop, the frame it
    # interrupts may have no line number, and rendering that traceback
    # crashes pytest's report (INTERNALERROR) and ends the session.
    outcome = yield
    exc = outcome.excinfo[1] if outcome.excinfo else None
    if isinstance(exc, DeadlineExceeded):
        outcome.force_exception(pytest.fail.Exception(str(exc), pytrace=False))


@pytest.fixture
def deadline():
    """deadline(seconds) fails the test once it has run that many seconds
    longer (a fraction of a second too), so a hang shows up as a failure
    instead of a stall."""
    def expire(signum, frame):
        raise DeadlineExceeded("test ran past its deadline")

    def arm(seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
