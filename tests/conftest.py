import numpy as np
import pytest

from assocsort.backend import BACKENDS, available, current_backend, use_backend


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test under each kernel backend that can run here."""
    if not available(request.param):
        pytest.skip(f"{request.param} backend unavailable")
    with use_backend(request.param):
        yield request.param


@pytest.fixture
def rng():
    return np.random.default_rng(0xA55)


def arr(*values):
    return np.array(values, dtype=np.int64)


@pytest.fixture(autouse=True, scope="session")
def _warm_kernels():
    # Build and touch the default backend's kernels once up front (a
    # first C build fills the cache) so individual test timings and the
    # allocation accounting in the acceptance tests stay clean.
    if current_backend() != "numpy":
        from assocsort.backend import warmup

        warmup()
    yield
