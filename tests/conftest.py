import pytest

from doubleeis.kronecker import KroneckerRealization


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Point the relation-system disk cache at a throwaway directory."""
    mp = pytest.MonkeyPatch()
    mp.setenv("DOUBLEEIS_CACHE_DIR", str(tmp_path_factory.mktemp("relcache")))
    yield
    mp.undo()


@pytest.fixture(scope="session")
def kron50():
    """The shared realization at q-order 50."""
    return KroneckerRealization(50)
