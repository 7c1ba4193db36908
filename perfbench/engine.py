"""Ray lifecycle for the benchmark: size, start, describe and stop a
local Ray instance whose files all live under the benchmark's work
directory.

- Ray keeps its files under a temp dir that the caller owns and removes.
- Ray is sized to the processing units this process may use, counted
  as ``nproc`` counts them, never a fixed count.
- Workers import the package through ``runtime_env`` (``PYTHONPATH`` set
  to the checkout root), so the benchmark runs from any working
  directory.
- ``stop`` waits for every process the instance started, killing any
  that outlive the shutdown.
"""

from __future__ import annotations

import logging
import math
import os
import time

import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
import psutil

# AF_UNIX socket paths are limited to 107 bytes on Linux; Ray puts
# ``/session_<stamp>_<pid>/sockets/plasma_store`` (up to 64 bytes) under
# its temp dir.
_SOCKET_SUFFIX_BYTES = 64
_SOCKET_PATH_MAX = 107

DATA_CONTEXT_FIELDS = (
    "op_resource_reservation_enabled", "op_resource_reservation_ratio",
    "target_max_block_size", "target_min_block_size", "shuffle_strategy",
    "read_op_min_num_blocks",
)


def usable_cpus() -> int:
    """Processing units available to this process, as GNU ``nproc``
    counts them: the affinity mask, capped by a cgroup CPU quota, with
    ``OMP_NUM_THREADS`` as a floor and ``OMP_THREAD_LIMIT`` as a cap."""
    n = len(os.sched_getaffinity(0))
    quota = _cgroup_cpu_quota()
    if quota:
        n = min(n, max(1, math.ceil(quota)))
    for var, pick in (("OMP_NUM_THREADS", lambda v: v),
                      ("OMP_THREAD_LIMIT", lambda v: min(n, v))):
        raw = os.environ.get(var, "").split(",")[0].strip()
        if raw.isdigit() and int(raw) > 0:
            n = pick(int(raw))
    return n


def _cgroup_cpu_quota() -> float | None:
    """CPUs' worth of quota from cgroup v2 ``cpu.max`` or v1
    ``cpu.cfs_quota_us``; None when unlimited or unknown."""
    def read(path):
        with open(path) as f:
            return f.read().split()

    try:
        quota, period = read("/sys/fs/cgroup/cpu.max")
    except OSError:
        try:
            quota, = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
            period, = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        except (OSError, ValueError):
            return None
    except ValueError:
        return None
    if quota in ("max", "-1"):
        return None
    return int(quota) / int(period)


def _socket_safe(path: str) -> str:
    """``path``, or the same directory reached through
    ``/proc/<pid>/cwd`` when that is shorter and Ray's socket paths under
    ``path`` would not fit AF_UNIX (a checkout deep in the file system)."""
    if len(path.encode()) + _SOCKET_SUFFIX_BYTES <= _SOCKET_PATH_MAX:
        return path
    rel = os.path.relpath(path, os.getcwd())
    short = os.path.join(f"/proc/{os.getpid()}/cwd", rel)
    if rel.startswith("..") or \
            len(short.encode()) + _SOCKET_SUFFIX_BYTES > _SOCKET_PATH_MAX:
        raise RuntimeError(
            f"Ray socket paths under {path!r} would exceed "
            f"{_SOCKET_PATH_MAX} bytes; run from the checkout root")
    return short


class Engine:
    """One local Ray instance. ``start`` returns once Ray accepts work;
    ``stop`` returns once every process it started has exited."""

    def __init__(self, root: str, temp_dir: str, num_cpus: int):
        self.root = root
        self.temp_dir = temp_dir
        self.num_cpus = num_cpus
        self._procs: dict[int, psutil.Process] = {}
        self._before: set[int] = set()

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # children the caller already had are not Ray's to stop
        self._before = {p.pid for p in psutil.Process().children(recursive=True)}
        os.makedirs(self.temp_dir, exist_ok=True)
        pythonpath = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=_socket_safe(self.temp_dir),
                 object_store_memory=512 << 20,
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self._procs = {}
        self.track()

    def track(self) -> None:
        """Remember every process below this one that Ray started, so
        ``stop`` can wait for workers started since the last call."""
        for p in psutil.Process().children(recursive=True):
            if p.pid not in self._before:
                self._procs.setdefault(p.pid, p)

    def peak_rss_mb(self) -> float:
        """Highest ``VmHWM`` of this process and any live Ray worker."""
        self.track()
        peaks = [_vm_hwm_kb(os.getpid())]
        for p in self._procs.values():
            try:
                if p.name().startswith("ray::"):
                    peaks.append(_vm_hwm_kb(p.pid))
            except (psutil.NoSuchProcess, FileNotFoundError):
                continue  # the worker exited
        return max(peaks) / 1024.0

    def stop(self) -> None:
        import ray

        self.track()
        ray.shutdown()
        _, alive = psutil.wait_procs(list(self._procs.values()), timeout=20)
        for p in alive:
            try:
                p.kill()
            except psutil.NoSuchProcess:
                pass
        _, alive = psutil.wait_procs(alive, timeout=10)
        if alive:
            raise RuntimeError(f"processes outlived Ray shutdown: "
                               f"{[p.pid for p in alive]}")
        self._procs = {}


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def host_info(num_cpus: int) -> dict:
    """CPU count, load, library versions and the DataContext settings
    that decide how Ray Data schedules the plan."""
    import pyarrow
    import ray
    from ray.data import DataContext

    ctx = DataContext.get_current()
    return {
        "usable_cpus": num_cpus,
        "host_cpus": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "data_context": {k: str(getattr(ctx, k)) for k in DATA_CONTEXT_FIELDS
                         if hasattr(ctx, k)},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
