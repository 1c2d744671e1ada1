"""Shared fixtures: kernel models and lattices are expensive, build them once."""

import numpy as np
import pytest

from bergman_lab import build_kernel_model, build_lattice, constant, geometry, standard, weights


def _clear_result_caches():
    geometry._lattice.cache_clear()
    weights._radial_masses.cache_clear()


@pytest.fixture(autouse=True)
def fresh_result_caches():
    """Empty the lattice and radial-mass caches before and after every test,
    so a test that patches a builder sees its own build and leaves none
    behind; a test that compares two runs calls the yielded function between
    them."""
    _clear_result_caches()
    yield _clear_result_caches
    _clear_result_caches()


@pytest.fixture(scope="session")
def u1():
    return constant()


@pytest.fixture(scope="session")
def ustd():
    return standard(1.0)


@pytest.fixture(scope="session")
def model_u1(u1):
    return build_kernel_model(u1, 200)


@pytest.fixture(scope="session")
def model_std(ustd):
    return build_kernel_model(ustd, 200)


@pytest.fixture(scope="session")
def model_u1_small(u1):
    return build_kernel_model(u1, 60)


@pytest.fixture(scope="session")
def lattice_small():
    return build_lattice(0.4, 0.9)


@pytest.fixture(scope="session")
def disc_points():
    k = np.arange(24)
    return 0.85 * np.sqrt((k + 0.5) / 24) * np.exp(2j * np.pi * 0.618 * k)
