import hypothesis
import numpy as np
import pytest

from varireg.variation import DiscreteCurve, StepCdf

from oracles import step_cdf_from_jumps

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


def random_step_cdf(rng, max_jumps=20) -> StepCdf:
    k = int(rng.integers(1, max_jumps + 1))
    locs = np.sort(rng.random(k))
    locs = np.unique(locs * 0.98 + 0.01)
    sizes = rng.random(locs.size) + 1e-3
    return step_cdf_from_jumps(locs, sizes)


def random_curve(rng, r=None) -> DiscreteCurve:
    if r is None:
        r = int(rng.integers(5, 40))
    grid = np.sort(rng.random(r))
    grid = np.unique(np.concatenate(([0.0, 1.0], grid)))
    values = rng.standard_normal(grid.size).cumsum()
    if np.abs(np.diff(values)).sum() < 1e-6:
        values = values + np.linspace(0.0, 1.0, grid.size)
    return DiscreteCurve(grid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
