#!/usr/bin/env python3
"""Build and run the CHEHAB benchmark.

Usage, from the repository root:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest    # the benchmark's own tests

Builds perfbench/ (and through it the library in src/) into
.bench_build/perfbench with CMake, then runs the benchmark binary,
whose last line of standard output is the JSON result. Build output
goes to standard error. Traces are written under .bench_build/traces.
BENCHMARK.json is the one list of metrics: a result line whose metric
names or units disagree with it fails the run.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not any(os.path.exists(os.path.join(BUILD, name))
               for name in ("build.ninja", "Makefile")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", *targets, "-j", jobs],
                   check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(stdout, trace):
    """None when the result line names exactly BENCHMARK.json's metrics
    of its kind with their units, else what disagrees."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    result = json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got == wanted:
        return None
    return sorted(set(got.items()) ^ set(wanted.items()))


def main(argv):
    testing = argv == ["--selftest"]
    try:
        build(["perfbench", "perfbench_selftest"] if testing else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if testing:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    command = [os.path.join(BUILD, "perfbench"), *argv,
               "--trace-dir", os.path.join(ROOT, ".bench_build", "traces"),
               "--commit", source_id()]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode in (0, 1) and run.stdout.strip():
        try:
            mismatch = check_result(run.stdout, "--trace" in argv and
                                    argv[argv.index("--trace") + 1] == "1")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as error:
            mismatch = f"unreadable: {error!r}"
        if mismatch:
            print(f"perfbench: result disagrees with BENCHMARK.json: {mismatch}",
                  file=sys.stderr)
            return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
