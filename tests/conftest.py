import fnmatch
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # for `import oracles`

from edrsim.cache import CacheGeometry
from edrsim.passes import Passes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ignored(name: str) -> bool:
    """Whether the root's .gitignore ignores an entry of the root: its
    caches and build output."""
    with open(os.path.join(ROOT, ".gitignore")) as fh:
        patterns = [line.strip().strip("/") for line in fh]
    return any(p and fnmatch.fnmatch(name, p) for p in patterns)


@pytest.fixture(scope="session", autouse=True)
def root_left_clean():
    """The run leaves no new file or directory in the repository root,
    but for what .gitignore ignores: a test writes under a temporary
    directory of its own."""
    before = set(os.listdir(ROOT))
    yield
    new = sorted(name for name in set(os.listdir(ROOT)) - before
                 if not _ignored(name))
    if new:
        pytest.fail(f"the tests left {new} in {ROOT}")


@pytest.fixture
def small_geometry():
    # 64 KB, 8-way, 64 B blocks, 1 KB pages -> 8 colors, 128 sets, 2 banks
    return CacheGeometry(size_bytes=64 * 1024, associativity=8, block_bytes=64,
                         page_bytes=1024, bank_bytes=32 * 1024)


@pytest.fixture
def tiny_geometry():
    # 32 KB, 8-way, 64 B blocks, 1 KB pages -> 4 colors, 64 sets, 2 banks
    return CacheGeometry(size_bytes=32 * 1024, associativity=8, block_bytes=64,
                         page_bytes=1024, bank_bytes=16 * 1024)


@pytest.fixture
def geometry_2mb():
    # 2 MB, 8-way, 64 B blocks, 4 KB pages, 1 MB banks -> 64 colors
    return CacheGeometry(size_bytes=2 * 1024 * 1024, associativity=8)


@pytest.fixture
def trips_bound(monkeypatch):
    """Each trip the simulator binds, in order: whether it binds a
    profiling unit (`unit`, so DCR's trip), its codes buffer (`codes`)
    and the timers that its one `Passes` call binds (`timers`)."""
    trips = []
    init = Passes.__init__

    def spy_init(self, state, trace, unit, schemes, timing, warm_at,
                 close_at, codes=None):
        init(self, state, trace, unit, schemes, timing, warm_at, close_at,
             codes)
        trips.append(SimpleNamespace(unit=unit is not None, codes=codes,
                                     timers=self.timers))
    monkeypatch.setattr(Passes, "__init__", spy_init)
    return trips
