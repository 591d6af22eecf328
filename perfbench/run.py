#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lubm-lookup --seed 1 --seconds 10 --trace 0

The harness (perfbench/main.ml) prints a header, a workload-property
report and determinism counters, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. This wrapper only
builds it with dune, records the source revision, and passes the
arguments through; its exit code is the harness's.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def source_revision():
    """git HEAD when available, else a digest of the library sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a source checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    # Keep every file the build writes inside the checkout: no shared dune
    # cache, and the compilers' temporary files under perfbench/out.
    tmp = os.path.abspath(os.path.join("perfbench", "out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                            "./perfbench/main.exe"], env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:] + ["--rev", source_revision()]).returncode


if __name__ == "__main__":
    sys.exit(main())
