"""The private C build cache of :mod:`hude.odeint`: :func:`load` builds a C
source that :func:`hude.odeint._c_source` printed with the interpreter's C
compiler and loads one of its entry points through :mod:`ctypes`.  A kernel
is built once per source text, compiler and flags into a shared object
cached in a directory private to the user under :func:`tempfile.gettempdir`,
which each build prunes (:data:`CACHE_AGE`).  :func:`hude.odeint._generated`
imports this module for the first field that compiles, so ``import hude``
builds and loads nothing; it imports no :mod:`hude` module.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import sysconfig
import tempfile

# No -ffast-math, no -march=native and no contraction into fused multiply-adds:
# every operation rounds as numpy's does, on any machine that loads the file.
# The AVX-512, AVX2 or baseline clone of the row loop (:data:`hude.odeint.CLONES`)
# is chosen when the object loads, not by a flag, so an object is portable.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# Seconds (a week) after its last load a cached object is removed by the next
# build: each new coefficient of a field is a new source and a new object.
CACHE_AGE = 7 * 24 * 3600


def _cache_dir() -> str:
    """The user's kernel cache, made mode 0700 if missing; OSError unless it
    is a directory that the user owns and no one else may enter."""
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"hude-kernels-{uid}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid or st.st_mode & 0o077:
        raise OSError(f"{path} is not a directory private to this user")
    return path


def load(source: str, symbol: str):
    """The function ``symbol`` that the C ``source`` defines, an entry point
    of the kernel contract (:mod:`hude.odeint`): an int64 row count, a double
    step and the addresses of ``nsteps``, ``out`` and the plan, built with
    the interpreter's C compiler (``sysconfig`` ``CC``) unless cached.  A load
    touches its object (an access time may not be kept), and a build removes
    the objects and temporary files untouched for :data:`CACHE_AGE`.  Raises
    OSError when there is no compiler, the build fails or the cache is not
    private."""
    command = [*shlex.split(sysconfig.get_config_var("CC") or ""), *FLAGS]
    if len(command) == len(FLAGS):
        raise OSError("no C compiler is configured")
    key = hashlib.sha256("\0".join([*command, source]).encode()).hexdigest()
    directory = _cache_dir()
    path = os.path.join(directory, f"{key[:32]}.so")
    try:
        os.utime(path)
        lib = ctypes.CDLL(path)
    except OSError:
        # Missing, or removed by another process's build since: built below.
        if os.path.exists(path):
            raise
        lib = None
    if lib is None:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            done = subprocess.run([*command, "-x", "c", "-", "-o", tmp],
                                  input=source.encode(), capture_output=True)
            if done.returncode:
                raise OSError(f"{command[0]} exited with {done.returncode}: "
                              f"{done.stderr.decode(errors='replace')[:500]}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        stale = os.stat(path).st_mtime - CACHE_AGE
        for entry in os.scandir(directory):
            try:
                if (entry.name.endswith(".so") and entry.path != path
                        and entry.stat().st_mtime < stale):
                    os.unlink(entry.path)
            except FileNotFoundError:
                pass  # removed by another process's build
        lib = ctypes.CDLL(path)
    fn = getattr(lib, symbol)
    fn.argtypes = [ctypes.c_int64, ctypes.c_double, *[ctypes.c_void_p] * 3]
    fn.restype = None
    return fn
