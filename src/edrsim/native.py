"""Build and load C sources with the local C compiler, through ctypes.

A source is compiled once into a shared library under the user cache
directory (`$XDG_CACHE_HOME/edrsim`, by default `~/.cache/edrsim`), in a
file named by the sha256 of the source, the compiler's name and its flags,
and later loads reuse that file.
A build writes a temporary file and renames it into place, so a process
never loads a half-written library. There is no fallback: without the
compiler, loading fails with an error that names it.
"""

import ctypes
import os
import shutil

# The interpreter's own SHA-256: hashlib would load OpenSSL, which adds
# about 3.6 MB to every simulation's resident memory.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

CC = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")


class BuildError(OSError):
    pass


def _find_compiler() -> str | None:
    return shutil.which(CC)


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "edrsim")


def library_path(source_path: str) -> str:
    """Where the library built from `source_path` with CC and CFLAGS is
    cached."""
    with open(source_path, "rb") as fh:
        digest = sha256(fh.read())
    digest.update("\0".join((CC, *CFLAGS)).encode())
    digest = digest.hexdigest()
    name = os.path.splitext(os.path.basename(source_path))[0]
    return os.path.join(cache_dir(), f"{name}-{digest}.so")


def _build(source_path: str, target: str) -> None:
    import subprocess  # only a build needs it, so a load does not pay its memory
    compiler = _find_compiler()
    if compiler is None:
        raise BuildError(
            f"edrsim compiles {os.path.basename(source_path)} with the C "
            f"compiler {CC!r}, which is not on PATH; install {CC} to run "
            "simulations")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.tmp-{os.urandom(8).hex()}"
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp, source_path],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(f"{CC} failed on {source_path}:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load(source_path: str) -> ctypes.CDLL:
    """The library built from `source_path`, compiled first if its cached
    build is missing."""
    target = library_path(source_path)
    if not os.path.exists(target):
        _build(source_path, target)
    return ctypes.CDLL(target)
