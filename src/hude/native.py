"""The part of :mod:`hude.odeint` that needs a C compiler: the C loop around
a reduced field's step, built with the interpreter's C compiler and loaded
through :mod:`ctypes`.  :func:`hude.odeint._generated` imports this module
for the first field that compiles, so ``import hude`` builds and loads
nothing.  A kernel is built once per source text, compiler and flags into a
shared object cached in a directory private to the user under
:func:`tempfile.gettempdir`, which each build prunes (:data:`CACHE_AGE`).
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

from .odeint import _step_source

# No -ffast-math, no -march=native and no contraction into fused multiply-adds:
# every operation rounds as numpy's does, on any machine that loads the file.
# The AVX2 clone (:data:`CLONES`) is chosen at load, not by a flag.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# The row loop's attribute: gcc (or a clang that has the attribute) builds an
# AVX2 clone and a baseline clone of ``loop`` into one object, and an ifunc
# resolved when the object loads picks the clone the CPU runs.  AVX2 rounds
# + - * / as SSE2 does, and the clone targets no FMA.  Printed only inside the
# guard of :func:`_c_source`: aarch64 and macOS toolchains reject an AVX2
# clone or have no ifunc, and musl's loader resolves no ifunc.
CLONES = '__attribute__((target_clones("avx2", "default")))'

# Seconds (a week) after its last load a cached object is removed by the next
# build: each new coefficient of a field is a new source and a new object.
CACHE_AGE = 7 * 24 * 3600


def _c_source(field, params: str, n: int, method: str, mode: str) -> str:
    """C source of ``kernel(rows, h, nsteps, out, plan)``: the kernel
    contract of :mod:`hude.odeint` (its module docstring lays out the plan
    and ``out``), row ``r`` of the plan read at ``plan + r*rows``.  Each
    entry point hands the plan's rows, as ``restrict`` pointers, to one
    ``static`` function ``loop``: the loop of
    :func:`hude.odeint._loop_source`, steps outer and rows inner, each step of a row the C statements of
    :func:`hude.odeint._step_source` between the load and the store of the
    row's state.  On x86-64 glibc, where the compiler has the attribute,
    ``loop`` is an ifunc with two clones (:data:`CLONES`), AVX2 and
    baseline, which is never inlined: each object holds the loop exactly
    twice, and every entry point calls the clone picked at load.  Elsewhere
    the preprocessor drops the attribute, and the object holds the one
    baseline loop.  The ``"terminal"`` source also defines ``chain`` and
    ``bisect``, with the same arguments.  ``chain`` runs that loop on one
    row at a time (the rows' pointers offset by ``i``), each from the
    terminal state of the row before it, which it copies forward in the
    plan.  ``bisect`` runs a residual bisection, its passes and what
    ``out`` carries laid out in the :mod:`hude.odeint` module docstring: it
    calls the exported ``kernel`` once per pass, which gcc does not inline
    under ``-fPIC``, so the loop is not compiled a third time.  As in the
    pass loop, a row fails where any state is not finite, and the upper half
    is kept only where ``x0 < x_next`` (false for NaN).  It leaves the
    plan's start states as it found them, so a plan runs again unchanged.
    """
    setup, step, _, _ = _step_source(field, n, method, "compiled")
    if method == "rk4":
        step = ["const double half = 0.5 * s, sixth = s / 6.0;", *step]
    xs = [f"x{j}" for j in range(n)]
    names = params.split(", ")
    step += [f"c_x{j}[i] = x{j};" for j in range(n)]
    if mode == "extremes":
        for j in range(n):
            for at, keep in ((f"{j} * rows + i", "<"),
                             (f"{n + j} * rows + i", ">")):
                step.append(f"{{ const double e = out[{at}]; out[{at}] = "
                            f"e {keep} x{j} || e != e ? e : x{j}; }}")
    elif mode == "record":
        step += [f"out[(k + 1) * {n} + {j}] = x{j};" for j in range(n)]
    pointers = ", ".join([*(f"double *restrict c_{x}" for x in xs), *(
        f"const double *restrict b_{name}" for name in names)])
    entry = ("(int64_t rows, double h, const int64_t *nsteps, double *out, "
             "double *plan) {")
    per_row = [f"plan + {r} * rows" for r in range(3 + n + len(names))]
    lines = [
        "#include <math.h>", "#include <stdint.h>",
        "#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) "
        "&& defined(__has_attribute)",
        "#if __has_attribute(target_clones)", CLONES, "#endif", "#endif",
        "static void loop(int64_t rows, double h, const int64_t *restrict "
        "nsteps, double *restrict out, const double *restrict t0, const "
        "double *restrict t_end, const double *restrict last, "
        f"{pointers}) {{",
        "    int64_t shared = INT64_MAX, total = 0;",
        "    for (int64_t i = 0; i < rows; i++) {",
        "        if (nsteps[i] < shared) shared = nsteps[i];",
        "        if (nsteps[i] > total) total = nsteps[i];", "    }",
        "    for (int64_t k = 0; k < total; k++) {",
        "        const double kh = (double)k * h;",
        "        for (int64_t i = 0; i < rows; i++) {",
        "            double t = t0[i] + kh, s = h;",
        # Before the shortest row's last step every row steps by h: gcc
        # unswitches this test and vectorises the loop over the rows.
        "            if (k >= shared - 1) {",
        "                if (k >= nsteps[i]) continue;",
        "                if (k == nsteps[i] - 1) {",
        "                    t = t < t_end[i] || t != t ? t : t_end[i];",
        "                    s = last[i];",
        "                }", "            }",
        f"            double {', '.join(f'{x} = c_{x}[i]' for x in xs)};",
        *(f"            {line}" for line in setup + step), "        }", "    }",
        "}", f"void kernel{entry}",
        f"    loop(rows, h, nsteps, out, {', '.join(per_row)});", "}"]
    if mode == "terminal":
        lines += [
            f"void chain{entry}",
            "    for (int64_t i = 0; i < rows; i++) {",
            *(f"        if (i) plan[{3 + j} * rows + i] = "
              f"plan[{3 + j} * rows + i - 1];" for j in range(n)),
            "        loop(1, h, nsteps + i, out, "
            f"{', '.join(f'{r} + i' for r in per_row)});", "    }", "}",
            f"void bisect{entry}",
            "    const int64_t passes = (int64_t)out[0];",
            # Each probe is a multiple of 1/grid: mid * grid is exact.
            "    const double grid = ldexp(1.0, (int)passes);",
            "    const double *x_next = out + 1;",
            "    double *lo = out + 1 + rows, *hi = lo + rows, *first = hi + "
            "rows, *probe = first + rows, *start = probe + rows;",
            f"    const double *phi = start + {n} * rows;",
            f"    double *x = plan + 3 * rows, *level = plan + {3 + n} * rows;",
            f"    for (int64_t i = 0; i < {n} * rows; i++) start[i] = x[i];",
            "    for (int64_t i = 0; i < rows; i++) {",
            "        lo[i] = 0.0;", "        hi[i] = 1.0;",
            "        first[i] = -1.0;", "    }",
            "    for (int64_t p = 0; p < passes; p++) {",
            f"        for (int64_t i = 0; i < {n} * rows; i++) x[i] = start[i];",
            "        for (int64_t i = 0; i < rows; i++)",
            "            level[i] = "
            "phi[(int64_t)(0.5 * (lo[i] + hi[i]) * grid) - 1];",
            "        kernel(rows, h, nsteps, 0, plan);",
            "        for (int64_t i = 0; i < rows; i++) {",
            "            const double mid = 0.5 * (lo[i] + hi[i]);",
            "            if (first[i] < 0.0 && !("
            + " && ".join(f"isfinite(x[{j} * rows + i])" for j in range(n))
            + ")) {",
            "                first[i] = (double)p;", "                probe[i] = mid;",
            "            }",
            "            if (x[i] < x_next[i]) lo[i] = mid; else hi[i] = mid;",
            "        }", "    }",
            # Restored, so a prepared plan runs again from its start states.
            f"    for (int64_t i = 0; i < {n} * rows; i++) x[i] = start[i];",
            "}"]
    return "".join(f"{line}\n" for line in lines)


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
    of the kernel contract (:func:`_c_source`): an int64 row count, a double
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
