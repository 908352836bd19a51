#!/usr/bin/env python3
"""Build and run the cWSP host-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --capture-reference perfbench/ref

The first call configures and builds perfbench/ (which compiles the
repository's src/ into the `cwsp` library) under $CARGO_TARGET_DIR
(default .bench_build). Build output goes to stderr, so the last line
of standard output is the driver's JSON result.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build incrementally (serialised by a lock)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no cwsp sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))
    (bdir / "tmp").mkdir(exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                die("cmake configure failed", 1)
        cmd = ["cmake", "--build", str(bdir), "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            die("build failed", 1)


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def src_hash():
    """SHA-256 over src/ paths and contents: the commit when git is absent."""
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def main(argv):
    bdir = build_dir()
    build(bdir)
    work = bdir / "work"
    work.mkdir(exist_ok=True)
    if argv[:1] == ["--selftest"]:
        cmd = [str(bdir / "perfbench_selftest"), str(HERE / "ref"), str(work)]
        return subprocess.run(cmd).returncode
    cmd = [str(bdir / "perfbench_driver"), *argv,
           "--ref-dir", str(HERE / "ref"), "--work-dir", str(work),
           "--commit", commit(), "--src-hash", src_hash()]
    if "--capture-reference" in argv:
        cmd = [str(bdir / "perfbench_driver"), *argv]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
