"""The host-speed reference: a fixed piece of pure-Python work.

The VM's vCPUs share a host with other tenants, and the host's load sets
their speed: for minutes at a time every op runs 20–70% slower, fastest
run included, so no statistic taken inside one run can take it out.  The
benchmark therefore times this work between passes, and scales each
op time by ``REFERENCE_S`` over the work's fastest time in the same
run.  A figure then reads as the time on a host as fast as the
one ``REFERENCE_S`` was measured on.

The work parses and compiles a generated Python module of a few dozen
functions: allocation-heavy interpreter work like the frontend's.  Of
the kernels tried, parsing and compiling Python source tracked the
host's load best; an arithmetic loop and a NumPy stream over a 4 MB
array tracked it less well.  It depends on nothing under ``src/``, so
no change to the program under test moves it.
"""

from __future__ import annotations

import ast

#: about the work's fastest time (s) in a run on a 2-vCPU Xeon VM with
#: Python 3.11.7; it sets the scale of the figures, not their spread
REFERENCE_S = 0.0065

SOURCE = "\n".join(
    f"def f{i}(xs, k={i}):\n"
    f"    out = {{}}\n"
    f"    for j, x in enumerate(xs):\n"
    f"        if x % {i % 7 + 2} == 0:\n"
    f"            out[j] = [x * k + y for y in range(j, j + {i % 5 + 1})]\n"
    f"    return sorted(out.items(), key=lambda kv: -len(kv[1]))\n"
    for i in range(32)
)


def work() -> None:
    compile(ast.parse(SOURCE), "<reference>", "exec")
