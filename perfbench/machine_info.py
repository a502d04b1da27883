"""Print the machine facts that go with a recorded baseline, as JSON.

Run from the root of a checkout:  python3 perfbench/machine_info.py

Kept apart from run.py, which reads nothing outside its checkout.
"""

import json
import os
import platform


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cpu_limit():
    """CPU limit of this cgroup: v2 ``cpu.max``, else v1 quota / period."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return f"cpu.max: {v2}"
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None:
        return None
    return f"cpu.cfs_quota_us={quota} cpu.cfs_period_us={period} (-1: no limit)"


def main():
    import numpy

    print(json.dumps({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cpu_limit": cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
    }, indent=1))


if __name__ == "__main__":
    main()
