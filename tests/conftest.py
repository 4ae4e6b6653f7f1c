"""Suite-wide checks of what the package's proofs assume of their inputs."""

import pytest

from beamsquint import capacity

from oracles import pair_asymmetry


@pytest.fixture(autouse=True, scope="session")
def pairs_within_the_mirror_asymmetry():
    """Every band a test builds pairs its subcarrier ratios within 2**-52
    of 2, the asymmetry that :func:`beamsquint.capacity._mirror_margin`
    proves for :func:`beamsquint.array_model.subcarrier_grid`."""
    grid = capacity.subcarrier_grid

    def checked(b, n_f):
        ratios = grid(b, n_f)
        assert pair_asymmetry(ratios) <= 2.0 ** -52, (b, n_f)
        return ratios

    with pytest.MonkeyPatch.context() as m:
        m.setattr(capacity, "subcarrier_grid", checked)
        yield
