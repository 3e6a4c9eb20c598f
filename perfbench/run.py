#!/usr/bin/env python3
"""Build and run the temporal-butterfly benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths are taken relative to the checkout this file sits
in. The first run builds the program and the benchmark from source with sbt
into `.bench_build/` (later runs reuse the build while the sources are
unchanged), then runs one JVM. The JVM prints a readable report on stderr
and the result line last on stdout; this launcher passes that line on only
if the run completed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A fixed heap and the throughput collector keep pauses out of the way of
# single-threaded timings: under G1 their spread was twice as wide. With the
# default InlineSmallCode, whether C2 inlines enough of TBC+ to remove its
# boxing differs from one JVM to the next (about 145 or 170 MB allocated per
# call, and 10-20 % in time); with a larger one it did in every JVM tried.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:MetaspaceSize=256m", "-XX:+UseParallelGC", "-XX:InlineSmallCode=6000"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads from the checkout, sorted."""
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return home


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group past `timeout`."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def build(stamp, env):
    """Compile with sbt unless a build of these exact sources exists;
    returns the runtime classpath."""
    os.makedirs(BUILD, exist_ok=True)
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "sources.sha256")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
            return open(cp_file).read()
        sbt = shutil.which("sbt")
        if not sbt:
            fail("sbt is not on PATH")
        print("perfbench: building with sbt ...", file=sys.stderr)
        t0 = time.time()
        with open(os.path.join(BUILD, "build.log"), "w") as log:
            code, out = run_bounded(
                [sbt, "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
                BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
            log.write(out)
        lines = [l for l in out.splitlines() if l.strip()]
        if code != 0 or not lines or lines[-1].startswith("["):
            fail(f"build failed (exit {code}); see {os.path.join(BUILD, 'build.log')}")
        with open(cp_file, "w") as f:
            f.write(lines[-1].strip())
        with open(stamp_file, "w") as f:
            f.write(stamp)
        print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
        return lines[-1].strip()


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()
    # A terminated launcher still stops the build or benchmark JVM it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    files = source_files()
    if not any(f.endswith(".scala") and f.startswith(PROGRAM_SOURCES) for f in files):
        fail(f"no program sources under {os.path.relpath(PROGRAM_SOURCES, os.getcwd())}")
    stamp = source_hash(files)

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    classpath = build(stamp, env)

    results = os.path.join(BUILD, "results")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(results, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(results, f"{a.workload}-seed{a.seed}-trace{a.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.commit={git_commit()}", f"-Dperfbench.sources={stamp}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", out]
    code, stdout = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail(f"benchmark JVM exited with {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
