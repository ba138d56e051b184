"""The fixed reference workload that every benchmark time is divided by.

The benchmark runs on shared cores whose speed wanders with the load of other
tenants: on the 2-vCPU Xeon it was written on, the CPU time of one and the
same item moved by a third within seconds and by up to 60% between runs
minutes apart.  A time divided by the time of a fixed piece of work measured
right next to it keeps only the item's own cost.  The reference mixes the
kinds of work polyflat does (rational arithmetic, small containers, strings
and small numpy array operations) and is no code of polyflat's, so a change
to the program does not move it.

Normalized times are reported in milliseconds of a machine on which the
reference takes exactly REFERENCE_S: about its CPU time on an idle core of
that Xeon.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

import numpy as np

REFERENCE_S = 1e-3


def reference_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        table[i] = (acc.numerator % 97, str(i))
    a = np.arange(200.0)
    for _ in range(100):
        a = np.sqrt(a + 1.0) * 1.01
    return len(table), float(a[0])


def reference_time():
    """CPU seconds of one run of the reference workload."""
    t0 = process_time()
    reference_work()
    return process_time() - t0
