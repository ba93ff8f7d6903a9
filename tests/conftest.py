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


@pytest.fixture
def deadline():
    """deadline(seconds) fails the test once it has run that many whole
    seconds longer, so a hang shows up as a failure instead of a stall."""
    def expire(signum, frame):
        pytest.fail("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
