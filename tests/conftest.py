import numpy as np
import pytest
from hypothesis import settings

from pdmg import demos
from pdmg.shapley import SolverConfig, backward_solve

# `pytest --hypothesis-profile=ci` runs the property tests on a larger budget
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def demo(request):
    return demos.build


@pytest.fixture(scope="session")
def const_cost():
    return demos.build("const_cost")


@pytest.fixture(scope="session")
def matching_pennies():
    return demos.build("matching_pennies")


@pytest.fixture(scope="session")
def two_state():
    return demos.build("two_state")


@pytest.fixture(scope="session")
def controlled():
    return demos.build("controlled_two_state")


@pytest.fixture(scope="session")
def grid_flow():
    return demos.build("grid_flow")


@pytest.fixture(scope="session")
def signed_cost():
    return demos.build("signed_cost")


@pytest.fixture(scope="session")
def nonneg_ladder_model():
    return demos.build("nonneg_ladder")


@pytest.fixture(scope="session")
def controlled_saddle_1000(controlled):
    """Solved saddle of the controlled demo at N=1000 (shared, expensive)."""
    return backward_solve(controlled, SolverConfig(n_steps=1000))


@pytest.fixture(scope="session")
def controlled_saddle_2000(controlled):
    return backward_solve(controlled, SolverConfig(n_steps=2000))


def singleton_strategies(model, n_steps=1):
    """Trivial strategy field for singleton-action models."""
    from pdmg.shapley import StrategyField, TimeGrid

    ones = np.ones((n_steps, model.n_states, 1))
    return StrategyField(TimeGrid(n_steps, model.horizon), ones, ones)
