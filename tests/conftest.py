import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("det", derandomize=True, max_examples=80, deadline=None)
settings.load_profile("det")


@pytest.fixture
def traced_peak():
    """The peak of traced allocations, in bytes, over ``call()`` after one warm-up call.

    The warm-up fills caches and finishes lazy imports, so the peak counts
    the working set of the call alone.
    """
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
