"""The build helper: compile once into the user cache, reuse after, and fail
loudly without a compiler; and the Python mirrors of lru.c's structs."""

import os
import re
import subprocess

import pytest

from oracles import replay, replay_reference
from edrsim import cache, native, sim
from edrsim.cache import CacheGeometry, CacheState, Passes, Replay
from edrsim.energy import SchemeKind, builtin_params
from edrsim.profiler import TimingParams
from edrsim.refresh import RefreshConfig
from edrsim.scheme import SchemeSpec
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, generate_synthetic

KERNEL = os.path.join(os.path.dirname(cache.__file__), "lru.c")
ORACLE = os.path.join(os.path.dirname(__file__), "lru_oracle.c")


def _codes(geometry, step=replay) -> bytes:
    trace = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(100_000, 96 * 1024, 0.4, 0.2)], rng_seed=3,
        accesses_per_kilo_instr=100))
    out = Replay(len(trace))
    step(CacheState(geometry), trace.addrs, trace.ops, 0,
         len(trace), out)
    return bytes(out.codes)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty build cache, and a kernel that is not loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(cache, "_lib", None)
    return tmp_path / "edrsim"


def test_cold_build_loads_and_gives_the_same_codes(cold_cache,
                                                   small_geometry):
    assert not cold_cache.exists()
    got = _codes(small_geometry)
    built = os.listdir(cold_cache)
    assert built == [os.path.basename(native.library_path(KERNEL))]
    assert got == _codes(small_geometry, replay_reference)


def test_second_load_reuses_the_build(cold_cache, small_geometry,
                                      monkeypatch):
    native.load(KERNEL)
    (target,) = os.listdir(cold_cache)
    stamp = os.stat(cold_cache / target).st_mtime_ns

    def no_compile(*args):
        raise AssertionError("compiled again")
    monkeypatch.setattr(native, "_build", no_compile)
    assert _codes(small_geometry)
    assert os.listdir(cold_cache) == [target]
    assert os.stat(cold_cache / target).st_mtime_ns == stamp


def test_missing_compiler_is_an_error_naming_it(cold_cache, small_geometry,
                                                monkeypatch):
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    with pytest.raises(native.BuildError, match=f"'{native.CC}'"):
        _codes(small_geometry)
    assert cache._lib is None
    assert not cold_cache.exists()


def test_changed_compiler_or_flags_build_another_library(cold_cache,
                                                         monkeypatch):
    first = native.library_path(KERNEL)
    native.load(KERNEL)
    compiler = native.CC
    monkeypatch.setattr(native, "CC", "cc")
    assert native.library_path(KERNEL) != first
    monkeypatch.setattr(native, "CC", compiler)
    monkeypatch.setattr(native, "CFLAGS", (*native.CFLAGS, "-DNDEBUG"))
    second = native.library_path(KERNEL)
    assert second != first
    built = []
    real_build = native._build

    def build(source_path, target):
        built.append(target)
        real_build(source_path, target)
    monkeypatch.setattr(native, "_build", build)
    native.load(KERNEL)
    assert built == [second]
    assert sorted(os.listdir(cold_cache)) == sorted(
        os.path.basename(p) for p in (first, second))


@pytest.mark.parametrize("source", [KERNEL, ORACLE],
                         ids=os.path.basename)
def test_c_sources_compile_without_warnings(source):
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", source],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _members(struct: str) -> list[str]:
    """The member names of lru.c's `struct NAME { ... };`, in order; a
    declaration of several members gives each of them."""
    with open(KERNEL) as fh:
        source = re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)
    body = re.search(r"^struct " + struct + r" \{(.*?)^\};", source,
                     re.S | re.M).group(1)
    return [re.findall(r"\w+", declarator)[-1]
            for declaration in body.split(";")[:-1]
            for declarator in declaration.split(",")]


def test_ctypes_mirrors_name_lru_c_members_in_order(monkeypatch):
    # a member added, removed or moved on one side only would misplace
    # every pointer after it
    assert _members("run") == [name for name, _ in cache._Run._fields_]
    assert _members("cache") == [name for name, _ in cache._Cache._fields_]
    # sim.run's clock array, as it binds it
    clocks = []
    bind_timing = Passes.bind_timing

    def spy(self, gaps, clock, *rest, **kw):
        clocks.append(len(clock))
        bind_timing(self, gaps, clock, *rest, **kw)

    monkeypatch.setattr(Passes, "bind_timing", spy)
    geometry = CacheGeometry(size_bytes=64 * 1024, associativity=8,
                             page_bytes=1024, bank_bytes=32 * 1024)
    trace = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(10_000, 8 * 1024)]))
    sim.run(trace, SchemeSpec(kind=SchemeKind.RPV,
                              refresh=RefreshConfig(2000, 4)),
            geometry, TimingParams(clock_ghz=2.0),
            builtin_params("EDRAM_2MB"))
    members = _members("clock")
    assert clocks == [len(members)]
    assert members.index("instructions") == sim._INSTRUCTIONS
