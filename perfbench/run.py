#!/usr/bin/env python3
"""Build the nucdb benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default perfbench/target), then this process is replaced
by the benchmark binary, whose exit code and output are the run's.

Cargo is only invoked when the sources changed since the last build: the
core crate's build script re-runs on every build outside a git checkout,
which would otherwise recompile the whole stack before every run.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the binary is built from, relative to the repository root.
SOURCES = ("perfbench", "crates", "third_party", "Cargo.toml")


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "nucdb-perfbench")
    stamp = binary + ".sources"
    digest = source_digest()
    built = None
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            built = f.read()
    if built != digest:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(HERE, "Cargo.toml"),
            ],
            stdout=sys.stderr,
            env=dict(os.environ, CARGO_TARGET_DIR=target),
        )
        if build.returncode != 0:
            sys.exit(f"benchmark build failed with exit code {build.returncode}")
        with open(stamp, "w") as f:
            f.write(digest)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
