"""Time one set-up in a fresh interpreter, in CPU time: ``import polyflat``, then the inputs.

Usage: python3 setup_probe.py <checkout root> <workload> <seed> <work dir>
Prints {"import_s": ..., "inputs_s": ..., "reference_s": ...} as one JSON
line; reference_s is the median of five runs of the reference workload
right after the set-up.
"""

import json
import statistics
import sys
import time


def main():
    root, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, f"{root}/src")
    t0 = time.process_time()
    import polyflat  # noqa: F401

    t1 = time.process_time()
    import workloads

    workloads.WORKLOADS[workload](root, seed, workdir)
    t2 = time.process_time()
    import reference

    ref = statistics.median(reference.reference_time() for _ in range(5))
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "reference_s": ref}))


if __name__ == "__main__":
    main()
