#!/usr/bin/env python3
"""Benchmark command: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload pairing-deep --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout. The first run compiles the repository's
main sources together with the benchmark driver (perfbench/src) with sbt and
caches the classes under .bench_build/; later runs reuse them while the
sources are unchanged. Each run starts a fresh JVM, so Pipeline.get's
in-process cache never carries over between runs.

Prints a human-readable report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. The full record of the run
(metadata, samples, spans) is written to .bench_build/runs/. Exits non-zero
when any operation fails the correctness gate or the run cannot complete.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_INPUTS = [PROGRAM_SOURCES, os.path.join(HERE, "src"),
                os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
REFERENCE = os.path.join(HERE, "reference.tsv")
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840
DRIVER_HEAP = "4g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    h = hashlib.sha256()
    for top in BUILD_INPUTS:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(source_sha):
    """Compiles with sbt (offline) unless the cached classes match the sources."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    sha_file = os.path.join(BUILD, "source.sha256")
    if os.path.exists(cp_file) and os.path.exists(sha_file):
        with open(sha_file) as fh:
            if fh.read().strip() == source_sha:
                with open(cp_file) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["JAVA_OPTS"] = f"{env.get('JAVA_OPTS', '')} -XX:-UsePerfData -Djava.io.tmpdir={tmp}".strip()
    repos = os.path.expanduser("~/.sbt/repositories")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g" + (
        f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
        if os.path.exists(repos) else ""))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        code = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                          "export Runtime/fullClasspath"],
                         BUILD_LIMIT_S, cwd=HERE, env=env, stdout=log, stderr=subprocess.STDOUT)
    with open(log_path) as log:
        lines = [l.strip() for l in log if l.strip()]
    if code != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"build failed (exit {code}); see {log_path}")
    classpath = lines[-1]
    with open(cp_file, "w") as fh:
        fh.write(classpath + "\n")
    with open(sha_file, "w") as fh:
        fh.write(source_sha + "\n")
    return classpath


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference values (use with --seed 7)")
    args = ap.parse_args()
    # Turn SIGTERM into an exit, so run_group still stops its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.time()
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"no program sources under {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    if not os.path.isdir(os.path.join(os.environ.get("SPARK_HOME", ""), "jars")):
        fail("SPARK_HOME must name a Spark distribution (the build compiles against its jars)")
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    source_sha = fingerprint()
    classpath = build(source_sha)
    built_s = time.time() - start

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(BUILD, "runs", name + ".json")
    if os.path.exists(out):
        os.remove(out)
    scratch = {d: os.path.join(BUILD, d) for d in ("spark-local", "tmp", "warehouse")}
    for d in scratch.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=scratch["spark-local"])
    cmd = ["java", f"-Xmx{DRIVER_HEAP}", f"-Xms{DRIVER_HEAP}", "-XX:-UsePerfData",
           "-Dspark.driver.host=127.0.0.1",
           f"-Djava.io.tmpdir={scratch['tmp']}",
           f"-Dspark.sql.warehouse.dir={scratch['warehouse']}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--out", out,
           "--git-sha", git_sha(), "--source-sha", source_sha]
    if args.write_reference:
        cmd.append("--write-reference")
    log_path = os.path.join(BUILD, "runs", name + ".log")
    with open(log_path, "w") as log:
        code = run_group(cmd, max(10, RUN_LIMIT_S - (time.time() - start) + built_s),
                         cwd=ROOT, env=env, stderr=log)
    sys.stdout.flush()
    if code is None:
        fail(f"run exceeded its time limit; see {log_path}")
    if not os.path.exists(out):
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"run failed (exit {code}); see {log_path}")
    with open(out) as fh:
        result = json.load(fh)["result"]
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
