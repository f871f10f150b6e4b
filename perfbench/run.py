#!/usr/bin/env python3
"""Build the programs and the benchmark harness from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `hare-count` and `hare-serve` (the repository workspace) and the
harness (`perfbench/Cargo.toml`, a workspace of its own) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the harness.
Generated inputs, results and spans go under `.bench_work/`. The last
line of standard output is the JSON result; see perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args):
    # Cargo's own output goes to stderr so stdout carries only the result.
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def git_commit():
    """The commit checked out, or "none" outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "none"


def source_digest():
    """A digest of every source the programs and the harness are built
    from, uncommitted edits included: traced runs key their work counts
    by it."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def main():
    for need in ["Cargo.toml", "crates/cli/Cargo.toml", "crates/serve/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "hare-cli", "-p", "hare-serve"])
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--bin-dir", release,
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--commit", git_commit(),
           "--source", source_digest()]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
