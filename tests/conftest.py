"""Shared caches so each catalog lattice is enumerated at most once per run."""

from importlib import resources

import pytest

from rackle.catalog import named_group
from rackle.lattice import enumerate_subrack_lattice, to_abstract
from rackle.racks import group_rack

# GL(2,3): order 48, derived length 4, outside the catalog
GL23_PATH = str(resources.files("rackle").joinpath("fixtures", "gl23.pgen"))

_groups: dict = {}
_lattices: dict = {}
_abstracts: dict = {}


def get_group(name: str):
    if name not in _groups:
        _groups[name] = named_group(name)
    return _groups[name]


def get_lattice(name: str):
    if name not in _lattices:
        _lattices[name] = enumerate_subrack_lattice(group_rack(get_group(name)))
    return _lattices[name]


def get_abstract(name: str, seed: int | None = None):
    key = (name, seed)
    if key not in _abstracts:
        _abstracts[key] = to_abstract(get_lattice(name), seed=seed)
    return _abstracts[key]


@pytest.fixture(scope="session")
def group_of():
    return get_group


@pytest.fixture(scope="session")
def lattice_of():
    return get_lattice


@pytest.fixture(scope="session")
def abstract_of():
    return get_abstract
