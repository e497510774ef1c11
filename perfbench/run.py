"""Band-join benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload pareto3d --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source when needed (see
build.py), runs the benchmark JVM, and passes its standard output
through. The last line is the JSON result; the full run record is
written to perfbench/out/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import build

# A fixed heap, and JIT thresholds at a tenth of the default: a run is
# too short for C2 to reach Spark's planning and scheduling paths at the
# default thresholds, and query times then drift down by a fifth or more
# through the run. No perf-data file is written outside the checkout.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-Xss8m", "-XX:CompileThresholdScaling=0.1", "-XX:-UsePerfData"]
TIMEOUT_S = 165
# Module access Spark needs on Java 17 (as spark-submit grants it).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar"]]


def git_commit():
    """HEAD of the repository holding this benchmark, or "unknown"."""
    try:
        top = subprocess.run(["git", "-C", str(build.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != build.ROOT:
        return "unknown"
    return lines[1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="pareto3d, pareto8d or rvpareto3d")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    try:
        classes, build_id = build.build()
        jars = build.spark_jars()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    work = build.BENCH / ".work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    cmd = ["java", *JVM_FLAGS, *JVM_OPENS,
           "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", f"{classes}{os.pathsep}{jars / '*'}",
           "perfbench.BandBench",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", str(work), "--out", str(build.BENCH / "out"),
           "--build", build_id, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}")
    try:
        keys = set(json.loads(lines[-1]))
    except ValueError:
        keys = set()
    if keys != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: the benchmark printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
