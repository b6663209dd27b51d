#!/usr/bin/env python3
"""Build the cloudbench binary from this checkout's source and run it.

    python3 cloudbench/run.py --workload sync_read --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. The Go build cache, temporary files, the
binary and CPU profiles all go under .bench_build/ at the checkout root, so
the benchmark reads and writes nothing outside the checkout. The binary's
standard output passes through unchanged: its last line is the JSON result.
Build failures go to standard error and the exit code is non-zero.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"),
                     ("PPROF_TMPDIR", "tmp")):
        path = os.path.join(OUT, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # Build only from the checkout: no toolchain or module downloads.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def source_id():
    """Names the code under test: the git commit when there is one, and a
    digest of the Go sources either way."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src.%s" % (commit, digest.hexdigest()[:12])


def main():
    env = go_env()
    go = shutil.which("go")
    if go is None:
        print("cloudbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(OUT, "cloudbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("cloudbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:] + ["--commit", source_id()]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
