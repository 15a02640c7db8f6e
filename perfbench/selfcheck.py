#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Runs the traced benchmark twice with the same seed and requires the work
counts to repeat exactly, then runs the untraced benchmark with a second
seed and requires every output check to pass.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]
                                   [--other-seed M] [--seconds S]

Run from the repository root. Exits 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--bin", "svbr-perfbench", "--"]
WORKLOADS = ["is_rare", "mc_synth", "serve_sessions"]
# Counts that must repeat exactly for one seed (prefix match).
COUNTS = ["is.reps", "is.slots", "is.hit_ratio", "resilience.ckpt_bytes",
          "marginal.transform_samples", "queue.lindley_samples"]


def run(workload, seed, seconds, trace):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if any(k.startswith(c) for c in COUNTS)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--other-seed", type=int, default=12)
    ap.add_argument("--seconds", type=int, default=6)
    args = ap.parse_args()
    ok = True
    for w in args.workload or WORKLOADS:
        a = run(w, args.seed, args.seconds, 1)
        b = run(w, args.seed, args.seconds, 1)
        if a is None or b is None:
            print(f"{w}: traced run failed")
            ok = False
            continue
        ca, cb = counts(a), counts(b)
        if not ca or ca != cb:
            print(f"{w}: counts differ for seed {args.seed}: {ca} vs {cb}")
            ok = False
        else:
            print(f"{w}: {len(ca)} counts repeat exactly for seed {args.seed}")
        c = run(w, args.other_seed, args.seconds, 0)
        if c is None or not c["correct"] or c["failed"]:
            print(f"{w}: seed {args.other_seed} failed its output checks")
            ok = False
        else:
            print(f"{w}: seed {args.other_seed} passes every output check")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
