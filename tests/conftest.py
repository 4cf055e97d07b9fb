import pathlib

import pytest

from ietkit import Diet, Iet, OrderedAlphabet, Permutation, QuadNum

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # The same draws on every run and in every checkout: examples come from a
    # hash of each test, and no example database carries draws between runs.
    # `pytest --hypothesis-profile default --hypothesis-seed N` draws anew.
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.load_profile("derandomized")

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def abc():
    return OrderedAlphabet("abc")


@pytest.fixture(scope="session")
def golden(abc):
    """The three-interval golden rotation: lengths 1 - 2*alpha, alpha, alpha
    with alpha = (3 - sqrt(5)) / 2, image order b, c, a."""
    alpha = QuadNum(3, -1, 2, 5)
    lengths = {"a": QuadNum(-2, 1, 1, 5), "b": alpha, "c": alpha}
    return Iet(abc, Permutation.from_one_line_letters("bca", abc), lengths)


@pytest.fixture(scope="session")
def seven_diet(abc):
    """Discrete exchange of 7 points with composition (4, 2, 1), reversing permutation."""
    return Diet([4, 2, 1], Permutation.symmetric(3))


@pytest.fixture(scope="session")
def golden_file():
    return str(DATA / "golden.iet")
