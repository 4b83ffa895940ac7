"""Shared pieces of the benchmark: isolation, statistics, host
fingerprint and the canonical bytes answers are compared on."""

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives here (ignored by git).
OUT_DIR = os.path.join(ROOT, ".bench_out")


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Isolation:
    """A fresh private ``REPRO_CACHE_DIR`` (and result-store root) for
    one set-up, active from construction until :meth:`close`, which
    restores the caller's environment and the process-wide caches and
    removes the directory."""

    def __init__(self, label):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{label}-", dir=OUT_DIR)
        self.cache_dir = os.path.join(self.root, "cache")
        self.store_dir = os.path.join(self.root, "store")
        self._saved = {key: os.environ.get(key) for key in ("REPRO_CACHE_DIR", "REPRO_CACHE")}
        os.environ["REPRO_CACHE_DIR"] = self.cache_dir
        os.environ.pop("REPRO_CACHE", None)
        reset_process_caches()

    def close(self):
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        reset_process_caches()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def reset_process_caches():
    """Forget the in-process netlist memory cache and the cache handle,
    so the next build reads (or synthesizes into) the current
    ``REPRO_CACHE_DIR``, and forked pool workers load from disk."""
    from repro.cache import reset_default_cache
    from repro.circuits import suite

    suite._NETLIST_CACHE.clear()
    reset_default_cache()


def shipped_defaults_environ():
    """Drop every ``REPRO_*`` setting so runs use the shipped defaults;
    returns the removed values for the fingerprint's record."""
    removed = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("REPRO_")}
    # Temporary files of the program and its children stay in the run's
    # own directory.
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR
    tempfile.tempdir = None
    return removed


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values):
    return statistics.median(values)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb():
    """The larger of this process's and its waited-for children's peak
    resident set size, in MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def answer_bytes(payload):
    """Canonical bytes of one ``execute_job``-shaped payload."""
    from repro.harness.checkpoint import payload_to_jsonable

    return json.dumps(payload_to_jsonable(payload), sort_keys=True).encode()


class Quality:
    """Means of the Table I shape metrics over partition answers, and of
    K_res over plan answers."""

    def __init__(self):
        self.d_le_1 = []
        self.i_comp_pct = []
        self.a_fs_pct = []
        self.k_res = []

    def add_partition(self, report):
        self.d_le_1.append(float(report.frac_d_le_1))
        self.i_comp_pct.append(float(report.i_comp_pct))
        self.a_fs_pct.append(float(report.a_fs_pct))

    def add_plan(self, payload):
        self.k_res.append(int(payload["k_res"]))


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """The checkout's commit, read from ``.git`` without running git (a
    source export has no ``.git``; git itself would search parents)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_fingerprint(isolation="inline", removed_env=None):
    import numpy
    import scipy

    from repro.harness import megabatch
    from repro.service.server import resolve_workers

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "gpu": None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "service_workers": resolve_workers(),
        "service_isolation": isolation,
        "megabatch": bool(megabatch.megabatch_enabled(None)),
        "ignored_repro_env": sorted(removed_env or ()),
    }
