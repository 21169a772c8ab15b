#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The program is built with dune into
.bench_build (no shared cache, so nothing is written outside the
checkout); the last line of standard output is the run's JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def revision():
    """The git commit when the checkout is a git repository, otherwise a
    digest of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", "./perfbench/main.exe"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return False
    if out.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n" + out.stdout)
        return False
    return True


def main():
    if not build():
        return 1
    args = sys.argv[1:]
    if "--selftest" not in args:
        args = args + ["--commit", revision()]
    return subprocess.run([EXE] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
