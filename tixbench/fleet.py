"""Building, corpus preparation and tixd process management.

Every path is inside the checkout: the build, the corpus cache (one per
source tree) and the per-run database copies live under .bench_build/.
"""

import functools
import hashlib
import json
import os
import select
import shutil
import subprocess
import time

import gen
import proto

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
SHARDS = 2
READY_TIMEOUT_S = 60.0  # spawn -> READY line, before a set-up counts as failed
# What the build and the corpus are made from: the repository's sources
# and the benchmark's own build (not its Python driver).
SOURCE_DIRS = ("src", "tools", "bench", os.path.join("tixbench", "probe"))
SOURCE_FILES = (os.path.join("tixbench", "CMakeLists.txt"),)


class BenchError(Exception):
    """Set-up failed; the run prints no result and exits non-zero."""


def _run_logged(args, log_name, **kwargs):
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, log_name), "ab") as log:
        result = subprocess.run(args, stdout=log, stderr=subprocess.STDOUT, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} failed; see .bench_build/{log_name}")


def build():
    """Configures once, then builds tixd and the probe (a no-op when up
    to date). Returns the paths of both binaries."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        _run_logged(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "build.log")
    _run_logged(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                 "--target", "tixd", "tixbench_probe"], "build.log")
    return os.path.join(BUILD, "tools", "tixd"), os.path.join(BUILD, "tixbench_probe")


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


@functools.lru_cache(maxsize=None)
def source_digest():
    """SHA-256 prefix over the path and contents of every file under
    SOURCE_DIRS and of SOURCE_FILES."""
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def corpus_dir():
    """The cached corpus of this source tree. The key includes the
    source digest: a checkout that alternates between two commits keeps
    one corpus per commit and never serves files one commit wrote in a
    format the other reads."""
    return os.path.join(WORK, f"corpus-a{gen.CORPUS_ARTICLES}-s{gen.CORPUS_SEED}"
                              f"-{source_digest()}")


def prepare_corpus(probe):
    """The fixed seeded corpus, built once per checkout and source tree
    (excluded from set-up time). Returns its corpus.json."""
    _run_logged([probe, "corpus", f"--out={corpus_dir()}",
                 f"--articles={gen.CORPUS_ARTICLES}", f"--seed={gen.CORPUS_SEED}",
                 f"--shards={SHARDS}"], "corpus.log")
    with open(os.path.join(corpus_dir(), "corpus.json")) as f:
        return json.load(f)


def single_dir():
    return os.path.join(corpus_dir(), "single")


def shard_dirs():
    return [os.path.join(corpus_dir(), f"shard{SHARDS}_{i}") for i in range(SHARDS)]


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def read_proc(pid):
    """VmHWM (bytes) and wchar of a live process."""
    out = {"vmhwm": 0, "wchar": 0}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                out["vmhwm"] = int(line.split()[1]) * 1024
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                out["wchar"] = int(line.split()[1])
    return out


class Tixd:
    """One spawned tixd: waits for its READY line, stops on close()."""

    def __init__(self, binary, args, log_path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.args = args
        self.port = None
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0, remaining))
            if not ready:
                self.close()
                raise BenchError("tixd did not become ready")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                self.close()
                raise BenchError(f"tixd exited during start-up (args {args})")
            line += chunk
        fields = dict(f.split("=", 1) for f in line.decode().split()[1:])
        self.port = int(fields["port"])
        self.pid = self.proc.pid

    def close(self):
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise ConnectionError("not ready")
                with proto.Client(self.port, timeout=10) as client:
                    client.shutdown()
            except (OSError, proto.ServerError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Fleet:
    """The tixd process(es) of one run over a fresh copy of the corpus:
    one tixd, or a coordinator in front of doc-sharded tixds."""

    def __init__(self, tixd, run_dir, sharded):
        self.dirs = []
        self.procs = []
        self.coordinator = None
        sources = shard_dirs() if sharded else [single_dir()]
        for source in sources:
            target = os.path.join(run_dir, os.path.basename(source))
            shutil.copytree(source, target)
            self.dirs.append(target)
        log = os.path.join(run_dir, "tixd.log")
        self.start = time.monotonic()
        try:
            for i, db in enumerate(self.dirs):
                args = [f"--db={db}", "--port=0"]
                if sharded:
                    args += [f"--shard-id={i}", f"--shard-count={len(self.dirs)}"]
                self.procs.append(Tixd(tixd, args, log))
            if sharded:
                shards = ",".join(f"127.0.0.1:{p.port}" for p in self.procs)
                self.coordinator = Tixd(tixd, ["--coordinator", f"--shards={shards}",
                                               "--port=0"], log)
        except BaseException:
            self.close()
            raise

    @property
    def port(self):
        return (self.coordinator or self.procs[0]).port

    @property
    def shards(self):
        return self.procs

    def all_procs(self):
        return ([self.coordinator] if self.coordinator else []) + self.procs

    def flags(self):
        return [p.args for p in self.all_procs()]

    def close(self):
        for proc in self.all_procs():
            proc.close()
        self.procs = []
        self.coordinator = None
