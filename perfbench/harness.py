"""Process-level plumbing for the benchmark: work directories inside the
checkout, the Ray session, child-process cleanup, the peak-RSS sampler, the
CPU probe and the summary statistics.

Everything the benchmark writes lives under ``<checkout>/.pb`` (inputs,
oracle digests, job outputs, Ray's session directory, reports).
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pb")
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6
RSS_INTERVAL_S = 0.02  # RSS sampling period
RSS_RESCAN_S = 0.25  # how often the sampler looks for new Ray workers
PROBE_S = 0.2  # length of one CPU probe

# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 64


def check_repo() -> None:
    """Refuse to run where the program under test is missing."""
    init = os.path.join(ROOT, "ocr_ray", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from a checkout of the repo")


def prepare_env() -> None:
    """Point every process this run starts at the checkout: the import path
    (Ray workers inherit it from the raylet, which inherits it from here)
    and the temp dir."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    paths = [ROOT, os.path.dirname(os.path.abspath(__file__))]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([old] if old else []))
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.pop("RAY_ADDRESS", None)
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)


def num_cpus() -> int:
    """What ``nproc`` reports: OMP_NUM_THREADS when set, else the CPUs this
    process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def _ray_temp_dir() -> str:
    d = os.path.join(WORK, "ray")
    if len(d) + _RAY_SOCKET_SUFFIX > 107:
        raise SystemExit(f"perfbench: {d} is too long for Ray's socket paths; "
                         "run from a checkout with a shorter path")
    return d


def _worker_ocr_ray_file() -> str:
    import ocr_ray

    return ocr_ray.__file__


def ray_start() -> None:
    """Start a local Ray session sized to this machine, one driver, and
    check that its workers import ``ocr_ray`` from this checkout."""
    import ray
    import ray.data

    ray.init(
        num_cpus=num_cpus(),
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=512 * 2**20,
        _temp_dir=_ray_temp_dir(),
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    where = ray.get(ray.remote(_worker_ocr_ray_file).remote())
    want = os.path.join(ROOT, "ocr_ray")
    if os.path.dirname(os.path.abspath(where)) != want:
        raise RuntimeError(f"Ray workers import ocr_ray from {where}, expected {want}")


def ray_stop() -> None:
    """Shut Ray down and wait until every process it started has ended.
    Now and then one of Ray's helper processes outlives ``ray.shutdown`` by
    many seconds; after a short grace it is killed."""
    import ray

    before = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + 3
    while True:
        alive = [p for p in before if _alive(p)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _ppids() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    out[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


class RssSampler:
    """Peak of (driver RSS + RSS of its Ray worker processes), sampled from
    /proc every ``RSS_INTERVAL_S`` while the ``with`` block runs. The worker
    set is refreshed every ``RSS_RESCAN_S``."""

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        pids: list[int] = []
        next_scan = 0.0
        while True:
            now = time.monotonic()
            if now >= next_scan:
                pids = [me] + [p for p in descendants(me) if _is_ray_worker(p)]
                next_scan = now + RSS_RESCAN_S
            self.peak_mb = max(self.peak_mb, sum(_rss_mb(p) for p in pids))
            if self._stop.wait(RSS_INTERVAL_S):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def cpu_probe_mops() -> float:
    """Single-core integer-spin rate in Mops/s. The box may be burst-credit
    throttled; a probe before and after each run shows a drained CPU."""
    t0 = time.monotonic()
    x = n = 0
    while time.monotonic() - t0 < PROBE_S:
        for _ in range(20_000):
            x = (x * 1664525 + 1013904223) & 0xFFFFFFFF
        n += 20_000
    return n / (time.monotonic() - t0) / 1e6


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile that has at least ten samples
    above it (None when there are too few samples), with the count."""
    out = {"median": statistics.median(samples), "n": len(samples), "tail_p": None,
           "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            out["tail_p"], out["tail"] = p, percentile(samples, p)
            break
    return out
