from types import SimpleNamespace

import pytest

from convstate import frontend


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(n)`` makes n CPUs usable to frontend's block kernel and
    returns a list that gets the helper count of each threaded
    ``_map_blocks`` call; the helpers still come from the shared pool."""
    helper_pool = frontend._helper_pool

    def use(cpus: int) -> list[int]:
        counts = []

        def recording_pool(size):
            pool = helper_pool(size)
            counts.append(0)

            def submit(fn):
                counts[-1] += 1
                return pool.submit(fn)

            return SimpleNamespace(submit=submit)

        monkeypatch.setattr(frontend, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(frontend, "_helper_pool", recording_pool)
        return counts

    return use
