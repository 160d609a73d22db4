"""The compiled integrator kernels: a reduced field's lowered ops printed as
C, built with the interpreter's C compiler and loaded through :mod:`ctypes`.

:mod:`hude.model` imports this module for the first field that asks for a
compiled kernel, so ``import hude`` builds and loads nothing.  A kernel is
compiled once per source text, compiler and flags into a shared object
cached on disk, in a directory private to the user under
:func:`tempfile.gettempdir`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import stat
import subprocess
import sysconfig
import tempfile

# No -ffast-math, no -march=native and no contraction into fused multiply-adds:
# every operation rounds as numpy's does, on any machine that loads the file.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def kernel(field, params: str, n: int, method: str, mode: str):
    """The compiled kernel of a reduced field lowered to ``field`` over the
    bound names ``params`` (:func:`hude.model._generated`): :func:`_c_source`
    built and loaded by :func:`load`; for ``mode`` ``"chain"`` the ``chain``
    entry point of the terminal source.  ``None``, after one debug line on
    the ``hude`` logger, for a field with an op that C may round unlike numpy
    or where the build fails."""
    inexact = sorted({func for func, *_ in field[0]} - _C_OPS.keys())
    if inexact:
        reason = f"{', '.join(inexact)} may round unlike numpy in C"
    else:
        # A chain is the second entry point of the terminal kernel's object.
        chain = mode == "chain"
        try:
            # nsteps, out, t0, t_end and last, the states and bound values.
            return load(_c_source(field, params, n, method,
                                  "terminal" if chain else mode),
                        "chain" if chain else "kernel",
                        5 + n + len(params.split(", ")))
        except OSError as exc:
            reason = f"the C kernel did not build: {exc}"
    logging.getLogger("hude").debug("numpy kernels run a %s %s field: %s",
                                    method, mode, reason)
    return None


# C spellings of the ops that round in C exactly as numpy's ufuncs do; a field
# with any other op (np.exp differs from libm's exp in the last bit) runs on
# the numpy kernels.
_C_OPS = {"add": "{} + {}", "subtract": "{} - {}", "multiply": "{} * {}",
          "divide": "{} / {}", "negative": "-{}", "absolute": "fabs({})"}


def _c_source(field, params: str, n: int, method: str, mode: str) -> str:
    """C source of ``kernel(rows, h, nsteps, out, t0, t_end, last, x0, ...,
    <params>)``, every argument after ``out`` a pointer to ``rows`` values
    (the states ``x0 ..`` stepped in place): the loop of
    :func:`hude.model._kernel_source` with the same operations in the same
    order, run steps outer and rows inner.  The ops of ``field``
    (:func:`hude.model.compile_model`) are a function of ``t``, the state
    and one row's bound values, literals written exactly as
    ``float.hex()``.  ``mode`` ``"extremes"`` keeps each row's running
    minimum and maximum of state ``j`` in ``out[j*rows + i]`` and
    ``out[(n + j)*rows + i]``, ``"record"`` (one row) writes state ``k`` of
    every step ``k`` to ``out[k*n ..]``.  The ``"terminal"`` source also
    defines ``chain``, with the same arguments: it runs the rows one at a
    time through ``kernel`` (a one-row call, pointers offset by ``i``), each
    from the terminal state of the row before it, which it copies forward.
    """
    ops, value = field

    def operand(a):
        if isinstance(a, int):
            return f"v{a}"
        return a if a[0].isalpha() else f"({float(a).hex()})"

    xs = [f"x{j}" for j in range(n)]
    names = params.split(", ")
    bound = ", ".join(f"b_{name}[i]" for name in names)

    def derivs(t, stage):
        # The stage's derivatives at the state ``x0 ..`` and time ``t``.
        return "const double " + ", ".join(
            [f"{stage}{j} = x{j + 1}" for j in range(n - 1)]
            + [f"{stage}{n - 1} = field({t}, {', '.join(xs)}, {bound})"]) + ";"

    if method == "euler":
        step = [derivs("t", "f"),
                *(f"x{j} = x{j} + s * f{j};" for j in range(n))]
    else:
        step = ["const double half = 0.5 * s, sixth = s / 6.0;",
                f"const double {', '.join(f'z{j} = x{j}' for j in range(n))};",
                derivs("t", "a")]
        for stage, prev, frac, t in (("b", "a", "half", "t + half"),
                                     ("c", "b", "half", "t + half"),
                                     ("d", "c", "s", "t + s")):
            step += [f"x{j} = z{j} + {frac} * {prev}{j};" for j in range(n)]
            step.append(derivs(t, stage))
        step += [f"x{j} = z{j} + sixth * (((a{j} + 2.0 * b{j}) + 2.0 * c{j})"
                 f" + d{j});" for j in range(n)]
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
    signature = ("(int64_t rows, double h, const int64_t *restrict nsteps, "
                 "double *restrict out, const double *restrict t0, const "
                 "double *restrict t_end, const double *restrict last, "
                 f"{pointers}) {{")
    lines = [
        "#include <math.h>", "#include <stdint.h>",
        "static double field(" + ", ".join(
            f"double {a}" for a in ["t", *xs, *names]) + ") {",
        *(f"    const double v{k} = "
          f"{_C_OPS[func].format(*map(operand, args))};"
          for k, (func, *args) in enumerate(ops)),
        f"    return {operand(value)};", "}",
        f"void kernel{signature}",
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
        *(f"            {line}" for line in step), "        }", "    }", "}"]
    if mode == "terminal":
        per_row = ["t0", "t_end", "last", *(f"c_{x}" for x in xs),
                   *(f"b_{name}" for name in names)]
        lines += [
            f"void chain{signature}",
            "    for (int64_t i = 0; i < rows; i++) {",
            *(f"        if (i) c_{x}[i] = c_{x}[i - 1];" for x in xs),
            "        kernel(1, h, nsteps + i, out, "
            f"{', '.join(f'{r} + i' for r in per_row)});", "    }", "}"]
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


def load(source: str, symbol: str, nargs: int):
    """The function ``symbol`` that the C ``source`` defines, taking an int64
    row count, a double step and ``nargs`` pointers, built with the
    interpreter's C compiler (``sysconfig`` ``CC``) unless cached.  Raises
    OSError when there is no compiler, the build fails or the cache is not
    private."""
    command = [*shlex.split(sysconfig.get_config_var("CC") or ""), *FLAGS]
    if len(command) == len(FLAGS):
        raise OSError("no C compiler is configured")
    key = hashlib.sha256("\0".join([*command, source]).encode()).hexdigest()
    directory = _cache_dir()
    path = os.path.join(directory, f"{key[:32]}.so")
    if not os.path.exists(path):
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
    fn = getattr(ctypes.CDLL(path), symbol)
    fn.argtypes = [ctypes.c_int64, ctypes.c_double, *[ctypes.c_void_p] * nargs]
    fn.restype = None
    return fn
