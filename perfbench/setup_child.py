"""Set-up time in a fresh interpreter: import softmatch and softmatch.cli,
then build one workload's configs and bounds. The import of the
benchmark's own workloads module between the two is not timed. Both times
are in wall seconds and in reference seconds (see hostspeed.py).

Usage: python3 -I perfbench/setup_child.py <repo root> <workload> <seed>
Prints one JSON object: {"import_s": ..., "config_s": ..., ...}.
"""
import sys
import time

ROOT, WORKLOAD, SEED = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [f"{ROOT}/src", f"{ROOT}/perfbench"]

from hostspeed import HostSpeed  # noqa: E402

with HostSpeed() as host:
    mark = host.mark()
    t0 = time.perf_counter()
    import softmatch  # noqa: E402,F401
    import softmatch.cli  # noqa: E402,F401
    import_wall, import_ref = host.close(mark, time.perf_counter() - t0)

    import workloads  # noqa: E402  (the benchmark's own code: not timed)

    mark = host.mark()
    t0 = time.perf_counter()
    workloads.WORKLOADS[WORKLOAD].build(SEED)
    config_wall, config_ref = host.close(mark, time.perf_counter() - t0)

import json  # noqa: E402

print(json.dumps({
    "import_s": import_ref, "config_s": config_ref,
    "import_wall_s": import_wall, "config_wall_s": config_wall,
    "module": softmatch.__file__,
}))
