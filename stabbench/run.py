#!/usr/bin/env python3
"""Build (when needed) and run the stabbench benchmark.

Usage, from the repository root:

    python3 stabbench/run.py --workload <sim-geo|wire-small|wire-8k> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`) the first time, and again whenever a source file under
`stabbench/`, `crates/` or `vendor/` is newer than it. Cargo itself is not
asked on every run: one crate's build script re-runs whenever the tree is
not a git checkout, which would rebuild half the workspace each time.
Traced runs write their spans to `<target dir>/stabbench-traces/`.
The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = [HERE, os.path.join(ROOT, "crates"), os.path.join(ROOT, "vendor")]


def newest_source_mtime():
    newest = 0.0
    for top in SOURCES:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "target" and not d.startswith(".")]
            for name in filenames:
                if name.endswith((".rs", ".toml", ".cfg", ".lock")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    needed = [
        os.path.join(HERE, "Cargo.toml"),
        os.path.join(ROOT, "crates", "core", "Cargo.toml"),
        os.path.join(ROOT, "crates", "transport", "Cargo.toml"),
        os.path.join(ROOT, "vendor", "bytes", "Cargo.toml"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"stabbench: library sources missing: {missing}", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(target, "release", "stabbench")
    if not os.path.isfile(binary) or os.path.getmtime(binary) < newest_source_mtime():
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(HERE, "Cargo.toml")],
            env={**os.environ, "CARGO_TARGET_DIR": target},
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("stabbench: build failed", file=sys.stderr)
            return 2
    trace_dir = os.path.join(target, "stabbench-traces")
    return subprocess.run([binary, *sys.argv[1:], "--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
