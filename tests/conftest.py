import pytest

from sevdel import bn254
from sevdel.groups import setup


@pytest.fixture(scope="session")
def toy_params():
    return setup("toy", sector_bits=16)


@pytest.fixture(scope="session")
def toy_params32():
    return setup("toy", sector_bits=32)


@pytest.fixture(scope="session")
def bn_params():
    return setup("bn254", sector_bits=8)


@pytest.fixture(scope="session", params=["toy", "bn254"])
def any_params(request, toy_params, bn_params):
    return toy_params if request.param == "toy" else bn_params


@pytest.fixture(scope="session")
def g1_on_curve():
    """Whether an affine bn254 G1 point, or None for the identity, lies on
    y^2 = x^3 + 3."""
    def on_curve(pt):
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + bn254.B)) % bn254.P == 0
    return on_curve
