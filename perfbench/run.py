#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Every argument is passed on to the program (see main.go). The Go build
keeps its cache, temporary files and the binary under .bench_build/ in
the checkout, so nothing is read from or written to the user's Go
directories. The exit code is the program's; a failed build exits 2
without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, "config"),
        XDG_CACHE_HOME=os.path.join(home, "cache"),
    )
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"], env["XDG_CACHE_HOME"]):
        os.makedirs(d, exist_ok=True)
    return env


def source_digest():
    """SHA-256 over the module's Go sources and go.mod files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checkout's git revision, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    p = subprocess.Popen(cmd, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    code = run([go, "build", "-o", BIN, "."], BUILD_TIMEOUT_S, cwd=HERE, env=go_env(),
               stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run([BIN, *sys.argv[1:], "--commit", commit(), "--source", source_digest(),
                "--out", os.path.join(BUILD, "perfbench")], RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
