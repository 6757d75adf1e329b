"""Building the program from the checkout's sources and preparing each
seed's inputs. Nothing here counts toward any metric."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CACHE = ROOT / ".bench_cache"
# Seeds whose inputs stay cached; older ones are deleted (each seed holds
# about 300 MB of flow logs).
KEEP_SEEDS = 3

WINDOW = 1
TRAIN = 2
K8S_HOURS = 1
USERVICE_HOURS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parallelism():
    return max(1, min(4, os.cpu_count() or 1))


def check_checkout():
    """The benchmark builds ccgraph from the checkout it sits in."""
    needed = [ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "ccgraph_cli.cpp"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise SystemExit(f"perfbench: not a ccgraph checkout, missing {', '.join(missing)}")


def build():
    """Configures once, then builds incrementally. Returns the binaries."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD.parent / "build.log"
    # Compiler temporaries stay inside the checkout too.
    tmpdir = BUILD.parent / "tmp"
    tmpdir.mkdir(exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmpdir)}
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(parallelism()),
                  "--target", "ccgraph", "perfbench_trace"])
    with open(logfile, "a") as out:
        for cmd in steps:
            started = time.monotonic()
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
            if rc != 0:
                raise SystemExit(f"perfbench: build step failed ({' '.join(cmd)}), see {logfile}")
            log(f"{' '.join(cmd[:2])} took {time.monotonic() - started:.1f} s")
    return BUILD / "ccg_tools" / "ccgraph", BUILD / "perfbench_trace"


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root, files):
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode() + b"\0" + file_digest(p).encode())
    return h.hexdigest()


def _ccgraph(binary, args, stdout, env):
    return subprocess.call([str(binary)] + args, stdout=stdout, stderr=subprocess.DEVNULL, env=env)


class Inputs:
    """Per-seed inputs, each made once and cached under .bench_cache.

    The cache key includes the ccgraph binary's digest, so a rebuilt
    program never reads inputs or references another build produced.
    """

    def __init__(self, ccgraph, seed, env):
        self.ccgraph = ccgraph
        self.seed = seed
        self.env = env
        self.dir = CACHE / f"seed{seed}-{file_digest(ccgraph)[:16]}"
        self.dir.mkdir(parents=True, exist_ok=True)
        os.utime(self.dir)
        self._prune()

    def _prune(self):
        dirs = sorted((d for d in CACHE.iterdir() if d.is_dir() and d.name.startswith("seed")),
                      key=lambda d: d.stat().st_mtime, reverse=True)
        for d in dirs[KEEP_SEEDS:]:
            shutil.rmtree(d, ignore_errors=True)

    def _make(self, name, produce):
        """Runs produce(tmp_path) unless `name` is cached; returns its path."""
        path = self.dir / name
        if path.exists():
            return path
        tmp = self.dir / (name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.exists():
            tmp.unlink()
        started = time.monotonic()
        produce(tmp)
        os.rename(tmp, path)
        log(f"prepared {name} for seed {self.seed} in {time.monotonic() - started:.1f} s")
        return path

    def _simulate(self, preset, hours):
        def produce(tmp):
            rc = _ccgraph(self.ccgraph, ["simulate", "--preset", preset, "--hours", str(hours),
                                         "--seed", str(self.seed), "--out", str(tmp)],
                          subprocess.DEVNULL, self.env)
            if rc != 0:
                raise SystemExit(f"perfbench: simulate {preset} failed ({rc})")
        return produce

    def _reference(self, csv):
        def produce(tmp):
            with open(tmp, "wb") as out:
                rc = _ccgraph(self.ccgraph, ["anomaly", "--in", str(csv), "--window", str(WINDOW),
                                             "--train", str(TRAIN), "--threads", "1",
                                             "--simd", "scalar"], out, self.env)
            if rc not in (0, 3):
                raise SystemExit(f"perfbench: reference anomaly run failed ({rc})")
        return produce

    def k8s_csv(self):
        return self._make("k8s.csv", self._simulate("k8s", K8S_HOURS))

    def k8s_reference(self):
        return self._make("k8s.ref", self._reference(self.k8s_csv()))

    def k8s_store(self):
        csv = self.k8s_csv()

        def produce(tmp):
            rc = _ccgraph(self.ccgraph, ["store", "append", "--in", str(csv), "--store", str(tmp),
                                         "--window", str(WINDOW)], subprocess.DEVNULL, self.env)
            if rc != 0:
                raise SystemExit(f"perfbench: store append failed ({rc})")
        return self._make("k8s.store", produce)

    def k8s_minute_offsets(self):
        """Byte offset where each minute of the (minute-sorted) k8s log
        starts; the header rides with minute 0."""
        csv = self.k8s_csv()

        def produce(tmp):
            data = csv.read_bytes()
            offsets = [0]
            minute = 1
            while True:
                at = data.find(b"\n%d," % minute, offsets[-1])
                if at < 0:
                    break
                offsets.append(at + 1)
                minute += 1
            tmp.write_text(json.dumps(offsets))
        return self._make("k8s.minutes.json", produce)

    def uservice_csv(self):
        return self._make("uservice.csv", self._simulate("microservice", USERVICE_HOURS))

    def uservice_reference(self):
        return self._make("uservice.ref", self._reference(self.uservice_csv()))

    def records(self, csv):
        """Flow records in a log (rows after the header)."""
        path = self._make(csv.name + ".records", lambda tmp: tmp.write_text(
            str(csv.read_bytes().count(b"\n") - 1)))
        return int(path.read_text())

    def digest(self, path):
        """Content digest of an input, cached beside it."""
        def produce(tmp):
            if path.is_dir():
                tmp.write_text(tree_digest(path, [p for p in path.rglob("*") if p.is_file()]))
            else:
                tmp.write_text(file_digest(path))
        return self._make(path.name + ".sha256", produce).read_text()


def stamp(ccgraph, workload, seed, extra):
    """Host and configuration facts attached to every result."""
    version = subprocess.run([str(ccgraph), "--version"], capture_output=True, text=True).stdout
    build_type = re.search(r"\((\S+) build", version)
    simd = re.search(r"dispatched=(\S+)", version)
    compiler = None
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"CMAKE_CXX_COMPILER:\w+=(.*)", cache.read_text())
        if m:
            out = subprocess.run([m.group(1), "--version"], capture_output=True, text=True).stdout
            compiler = out.splitlines()[0] if out else m.group(1)
    commit = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = rev.stdout.strip() or None
    sources = [p for d in ("src", "tools") for p in (ROOT / d).rglob("*") if p.is_file()]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "source_digest": tree_digest(ROOT, sources),
        "build_type": build_type.group(1) if build_type else None,
        "compiler": compiler,
        "online_cpus": os.sysconf("SC_NPROCESSORS_ONLN"),
        "simd_dispatched": simd.group(1) if simd else None,
        **extra,
    }
