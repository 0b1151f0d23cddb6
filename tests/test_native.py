"""The build helper: compile once into the user cache, reuse after, and fail
loudly without a compiler; and the Python mirrors of lru.c's structs,
routines and code byte."""

import ctypes
import os
import re
import subprocess

import pytest

import oracles
from oracles import replay, replay_reference
from edrsim import cache, native, passes
from edrsim.cache import CacheState
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, generate_synthetic

KERNEL = os.path.join(os.path.dirname(cache.__file__), "lru.c")
ORACLE = os.path.join(os.path.dirname(__file__), "lru_oracle.c")


def _codes(geometry, step=replay) -> bytes:
    trace = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(100_000, 96 * 1024, 0.4, 0.2)], rng_seed=3,
        accesses_per_kilo_instr=100))
    codes = bytearray(len(trace))
    step(CacheState(geometry), trace, 0, len(trace), codes)
    return bytes(codes)


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
def test_c_sources_compile_without_warnings(source, tmp_path):
    # with the build's compiler and flags: flow warnings such as
    # -Wmaybe-uninitialized need -O2's analysis
    proc = subprocess.run([native.CC, *native.CFLAGS, "-Wall", "-Wextra",
                           "-Werror", "-o", str(tmp_path / "lib.so"), source],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_record_loop_calls_only_fire_and_memset(tmp_path):
    # edr_run's body, the cold part gcc splits off included, calls fire (a
    # refresh boundary) and memset (the end of warm-up) and nothing else:
    # no step left out of line, and no memmove that gcc made of a shift
    # loop
    asm = tmp_path / "lru.s"
    proc = subprocess.run([native.CC, *native.CFLAGS, "-S", "-o", str(asm),
                           KERNEL], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    called, function = set(), None
    for line in asm.read_text().splitlines():
        label = re.match(r"([A-Za-z_][\w.]*):", line)
        if label:
            function = label.group(1).split(".")[0]
            continue
        words = line.split()
        if function == "edr_run" and len(words) > 1 \
                and words[0] in ("call", "jmp", "bl", "b") \
                and re.fullmatch(r"[A-Za-z_]\w*(@PLT)?", words[1]):
            called.add(words[1].removesuffix("@PLT"))
    assert called == {"fire", "memset"}


# lru.c's member types, as ctypes declares them; every pointer is a void *
_CTYPES = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64,
           "double": ctypes.c_double}


def _source() -> str:
    """lru.c without its comments."""
    with open(KERNEL) as fh:
        return re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)


def _members(struct: str) -> list[tuple[str, type]]:
    """The members of lru.c's `struct NAME { ... };`, in order, each with
    the ctypes type that mirrors it; a declaration of several members
    gives each of them."""
    body = re.search(r"^struct " + struct + r" \{(.*?)^\};", _source(),
                     re.S | re.M).group(1)
    members = []
    for declaration in body.split(";")[:-1]:
        # the type, read from the first declarator, unless a pointer
        base = re.findall(r"\w+", declaration.split(",")[0])[-2]
        for declarator in declaration.split(","):
            name = re.findall(r"\w+", declarator)[-1]
            members.append((name, ctypes.c_void_p if "*" in declarator
                            else _CTYPES[base]))
    return members


def test_ctypes_mirrors_name_lru_c_members_in_order():
    # a member added, removed, moved or retyped on one side only would
    # misplace every member after it
    for struct, mirror in [("run", passes._Run), ("cache", cache._Cache),
                           ("timer", passes.Timer)]:
        assert _members(struct) == mirror._fields_, struct


def test_code_byte_names_mirror_lru_c():
    # the tests read the kernel's code bytes by these names
    body = re.search(r"^enum \{ (HIT = .*?) \};", _source(), re.M).group(1)
    named = dict(item.split(" = ") for item in body.split(", "))
    assert {name: int(value) for name, value in named.items()} == {
        name: getattr(oracles, name)
        for name in ("HIT", "EVICTED", "DIRTY_VICTIM", "WRITE", "AGE_SHIFT")}


def test_ctypes_prototypes_mirror_lru_c_functions():
    # ctypes passes an extra argument without a word, so a prototype
    # changed in lru.c alone would be called with the old arguments; and
    # a routine missing from kernel()'s table would take no argtypes
    defined = re.findall(r"^(\w+) (edr_\w+)\((.*?)\)\s*\{", _source(),
                         re.S | re.M)
    assert {"edr_run", "edr_flush", "edr_pack"} <= {d[1] for d in defined}
    for restype, name, params in defined:
        routine = cache.kernel(name)
        assert routine.argtypes is not None, f"{name} is not in the table"
        assert list(routine.argtypes) == [
            ctypes.c_void_p if "*" in param
            else _CTYPES[re.findall(r"\w+", param)[-2]]
            for param in params.split(",")], name
        assert routine.restype is (
            None if restype == "void" else _CTYPES[restype]), name
