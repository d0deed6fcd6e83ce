#!/usr/bin/env python3
"""Build the benchmark and the release `baton` binary from source, then run
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Cargo output goes to stderr; the last line
of stdout is the benchmark's JSON result. The build lands in
$CARGO_TARGET_DIR (default: .bench_build at the checkout root).

The benchmark binary reports every metric it measured. This script maps that
onto BENCHMARK.json: with --trace 0 the result holds exactly the end-to-end
metrics, each of which every workload must measure; with --trace 1 exactly
the per-layer metrics, where a layer the workload does not exercise reads 0.
The binary's other lines, which print every measured number with its unit
and sample count, are passed through.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The benchmark package and, from the same dependency graph, the
    # `baton` binary the serve workloads spawn.
    build = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", MANIFEST,
        "-p", "baton-perfbench", "--bin", "baton-perfbench",
        "-p", "nn-baton", "--bin", "baton",
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode or 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "baton-perfbench")
    baton = os.path.join(release, "baton")
    cmd = [bench, *sys.argv[1:], "--baton", baton]
    ran = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = ran.stdout.splitlines()
    if ran.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"run.py: benchmark exited with code {ran.returncode}", file=sys.stderr)
        return ran.returncode or 2
    print("\n".join(lines[:-1]))
    # The binary has already validated the flags.
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    try:
        result = to_manifest(json.loads(lines[-1]), trace)
    except (ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def to_manifest(measured, trace):
    """The result line with exactly the manifest's metrics for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    got = measured["metrics"]
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                raise ValueError(f"{name} measured in {got[name]['unit']}, manifest says {unit}")
            metrics[name] = got[name]
        elif trace:
            # The workload does not exercise this layer.
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            raise ValueError(f"end-to-end metric {name} was not measured")
    return {key: measured[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
