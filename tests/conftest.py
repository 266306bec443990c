import pytest

import mrcodes.mrcode
import mrcodes.progfree


@pytest.fixture
def off_group_subset(monkeypatch):
    """Make the lookup kernel also report columns (0, ..., r-1, r+1), which
    are in no one repair group, as deficient: the failure path of verify_mr
    and of everything that refuses a failing report, on a real code.
    Yields that subset for r = 2."""
    kernel = mrcodes.mrcode._identity_subsets

    def with_extra(values, r, N):
        yield from sorted([*kernel(values, r, N), (*range(r), r + 1)])

    monkeypatch.setattr(mrcodes.mrcode, "_identity_subsets", with_extra)
    yield (0, 1, 3)


@pytest.fixture(autouse=True)
def cold_set_search():
    """Start and end every test with empty set-search caches, so no test's
    counts depend on the tests run before it, and a search run under a
    patched _first_of_size is not kept for later tests."""
    caches = (mrcodes.progfree._sizes, mrcodes.progfree._best)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
