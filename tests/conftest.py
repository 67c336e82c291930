"""Shared fixtures: the stock urban-canyon scenario and paths to repo configs."""

from pathlib import Path

import pytest
from hypothesis import settings

from risharvest.optimizer import placement_objective
from risharvest.scenario import default_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent

# `pytest --hypothesis-profile=ci`: the same examples on every run, and a
# failure prints the blob that replays it with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)


def objective(r1h_m, scenario):
    """The reduced placement objective G = first * second."""
    first, second = placement_objective(r1h_m, scenario)
    return first * second


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def default_config_path(repo_root: Path) -> Path:
    return repo_root / "configs" / "default.cfg"


@pytest.fixture(scope="session")
def sites_config_path(repo_root: Path) -> Path:
    return repo_root / "configs" / "sites_example.cfg"


@pytest.fixture()
def scenario():
    return default_scenario()


@pytest.fixture()
def tiny_scenario():
    # 2x2 surface, small enough for exhaustive phase enumeration
    return default_scenario(ris_rows=2, ris_cols=2)
