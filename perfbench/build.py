"""Build of the band-join benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) with the Scala compiler that ships in the
Spark distribution, against the same Spark jars the program is built
with. The output sits in perfbench/.build/<source hash>/ and is reused
until a source file changes.

    python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, or
    the one next to the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        home = str(Path(exe).resolve().parent.parent) if exe else ""
    jars = Path(home) / "jars"
    if not home or not jars.is_dir():
        raise BuildError("Spark distribution not found: set SPARK_HOME")
    return jars


def sources():
    program = ROOT / "src" / "main" / "scala"
    files = sorted(program.rglob("*.scala"))
    if not files:
        raise BuildError(f"no program sources under {program.relative_to(ROOT)}")
    return files + sorted((BENCH / "src").rglob("*.scala"))


def build():
    """Returns (classes directory, build id), compiling when needed."""
    jars = spark_jars()
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(" ".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    build_id = h.hexdigest()[:16]
    out = BUILD / build_id
    classes = out / "classes"
    if (out / "done").exists():
        return classes, build_id
    shutil.rmtree(BUILD, ignore_errors=True)
    classes.mkdir(parents=True)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", "-cp", str(jars / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(classes)]
    cmd += [str(f) for f in files]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    (out / "done").write_text(build_id + "\n")
    return classes, build_id


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
