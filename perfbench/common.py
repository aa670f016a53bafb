"""Run context shared by the workloads: private temp dir, Ray session,
process-tree RSS sampling, teardown, and small statistics helpers."""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ray puts AF_UNIX sockets under its temp dir: "<dir>/session_<stamp>_<pid>/
# sockets/plasma_store" must fit in 107 bytes
_RAY_SOCKET_SUFFIX = 72


def since_process_start() -> float:
    """Seconds since this process was created (kernel start time)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """What ``nproc`` prints: usable CPUs, capped by OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    s = sorted(xs)
    return float(s[min(len(s) - 1, int(q / 100.0 * len(s)))])


def _children_map() -> dict:
    kids: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _stat(pid: int) -> tuple | None:
    """(state, start time in ticks) of a process, None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[19])


def _alive(pid: int, start: int) -> bool:
    """The process seen earlier (same pid and start time) still runs."""
    st = _stat(pid)
    return st is not None and st[0] != "Z" and st[1] == start


class TreeRSS:
    """Peak RSS (VmHWM) of every process in this process's tree, read at
    the points the workloads choose (never inside a timed window, where a
    /proc scan would compete for the one core).  Processes that get
    re-parented away (Ray workers after their raylet exits) stay known by
    pid, so teardown can wait for them."""

    def __init__(self):
        self.peak_kb: dict[int, int] = {}
        self.start: dict[int, int] = {}     # pid -> start time, against pid reuse

    def sample(self):
        me = os.getpid()
        kids = _children_map()
        todo, tree = [me], []
        while todo:
            p = todo.pop()
            tree.append(p)
            todo.extend(kids.get(p, ()))
        for p in tree:
            kb, st = _hwm_kb(p), _stat(p)
            if kb is None or st is None or self.start.setdefault(p, st[1]) != st[1]:
                continue  # gone, or a new process under a recycled pid
            self.peak_kb[p] = max(kb, self.peak_kb.get(p, 0))

    def total_mb(self) -> float:
        self.sample()
        return sum(self.peak_kb.values()) / 1024.0

    def known(self) -> list[tuple]:
        """(pid, start time) of every process seen, this one excepted."""
        return [(p, t) for p, t in self.start.items() if p != os.getpid()]


class Session:
    """One benchmark invocation: private temp dir (removed at exit), the
    environment every child process inherits, an optional Ray session, and
    child processes that must be stopped before exit."""

    def __init__(self):
        base = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="", dir=base)
        # Ray's session dir lives inside the private dir when the socket
        # paths fit; otherwise in a private dir under the system temp
        if len(self.tmp) + _RAY_SOCKET_SUFFIX <= 107:
            self.ray_tmp = os.path.join(self.tmp, "r")
        else:
            self.ray_tmp = tempfile.mkdtemp(prefix="pb")
        pp = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + pp if pp else "")
        os.environ["TMPDIR"] = self.tmp
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        os.environ["RAY_DEDUP_LOGS"] = "0"
        self.rss = TreeRSS()
        self.procs: list[subprocess.Popen] = []
        self.ray = False
        # everything the run starts (Ray's daemons and workers, the server)
        # shares the first nproc CPUs: left to float over the VM's other
        # vCPUs, Ray jobs ran faster but their times spread twice as wide
        # from run to run, and the serve round trip changed with whether
        # client and server landed on one vCPU or two
        self.pin()

    def path(self, *parts) -> str:
        return os.path.join(self.tmp, *parts)

    def start_ray(self):
        import logging

        import ray
        from ray.data import DataContext

        ray.init(
            num_cpus=nproc(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=256 << 20,
            _temp_dir=self.ray_tmp,
        )
        self.ray = True
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop_ray(self):
        if self.ray:
            import ray

            self.rss.sample()
            ray.shutdown()
            self.ray = False

    def pin(self):
        """Keep this process and the children it starts to the first
        ``nproc`` CPUs."""
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:nproc()])

    def spawn(self, argv: list, **kw) -> subprocess.Popen:
        p = subprocess.Popen(argv, cwd=self.tmp, **kw)
        self.procs.append(p)
        return p

    def stop_proc(self, p: subprocess.Popen, timeout: float = 15.0):
        if p.poll() is None:
            self.rss.sample()
            p.send_signal(signal.SIGINT)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait(timeout=timeout)
        for s in (p.stdout, p.stderr):
            if s is not None:
                s.close()

    def close(self):
        """Stop Ray and every child, wait until all have ended, remove the
        private directories."""
        try:
            for p in self.procs:
                self.stop_proc(p)
            self.stop_ray()
        finally:
            deadline = time.monotonic() + 30
            procs = self.rss.known()
            while time.monotonic() < deadline and any(_alive(*p) for p in procs):
                time.sleep(0.1)
            stuck = [p for p, t in procs if _alive(p, t)]
            if stuck:
                log(f"killing {len(stuck)} processes still alive 30 s after shutdown: {stuck}")
            for p in stuck:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            shutil.rmtree(self.tmp, ignore_errors=True)
            if not self.ray_tmp.startswith(self.tmp):
                shutil.rmtree(self.ray_tmp, ignore_errors=True)


def dir_bytes(path: str) -> int:
    total = 0
    for dp, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dp, f))
    return total


def same_ranking(resp, top) -> bool:
    """An engine response (``.docs`` with ``doc_id`` and ``bm25``) equals the
    oracle's top-k: the same ids in order, scores within 1e-5."""
    got = [(h.doc_id, h.bm25) for h in resp.docs]
    return [d for d, _ in got] == [d for d, _ in top] and all(
        abs(a - b) <= 1e-5 * max(1.0, abs(b)) for (_, a), (_, b) in zip(got, top))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: always the last line on stdout."""
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
