#!/usr/bin/env python3
"""Dupin benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload edge-window --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the program and the benchmark from
source with sbt on first use (the classpath is cached under .bench_build/
and rebuilt whenever a source or build file changes), then runs the
benchmark JVM. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd().resolve()
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
# Everything the build reads; a change to any of it forces a rebuild.
INPUTS = ["build.sbt", "project", "src/main", "jobs",
          "perfbench/build.sbt", "perfbench/project", "perfbench/src/main"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "2g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    h = hashlib.sha256(str(ROOT).encode())
    for rel in INPUTS:
        p = ROOT / rel
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file() and "target" not in f.relative_to(ROOT).parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def classpath(digest):
    """The benchmark's runtime classpath, building first if sources changed."""
    cache = OUT / "classpath.txt"
    if cache.is_file():
        stamp, _, cp = cache.read_text().partition("\n")
        if stamp == digest and cp.strip():
            return cp.strip()
    OUT.mkdir(parents=True, exist_ok=True)
    # Offline: every dependency comes from the local caches.
    cmd = ["sbt", "--batch", "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
           "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    try:
        p = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or os.pathsep not in lines[-1]:
        sys.stderr.write(p.stdout[-4000:])
        fail(f"build failed (sbt exit {p.returncode})")
    cp = lines[-1].strip()
    cache.write_text(digest + "\n" + cp + "\n")
    return cp


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"the program's sources are not here ({ROOT}); run from the repository root")
    digest = fingerprint()
    cp = classpath(digest)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed, pre-touched heap and ParallelGC keep op times steady: no page
    # faults on first use of the young generation, and no concurrent GC
    # threads competing with the engine's nproc workers.
    cmd = ["java", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", f"-Xms{HEAP}", f"-Xmx{HEAP}",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}", f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--git-sha", git_sha(), "--source-hash", digest]
    if a.trace == "1":
        cmd += ["--trace-file", str(OUT / "traces" / f"{a.workload}-seed{a.seed}.json")]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
