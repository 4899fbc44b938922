#!/usr/bin/env python3
"""Build and run the HarDTAPE end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 30 --trace 0

builds the benchmark (a Go module beside this file that uses the
repository through a `replace` directive) into .bench_build/ and runs it
once; its last line of output is the JSON result.

    python3 perfbench/run.py --workload eval-mix --repeat 10 --seed 1

is the steadiness mode: it runs seeds 1..10 one after another, each in
its own process, and prints every metric's median, quartiles,
(max-min)/median and (q3-q1)/median.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s holds no go.mod; run from a checkout of the repository" % ROOT)
    env = dict(os.environ)
    # Keep every build output inside the checkout, and never reach for
    # the network: the module has no dependencies outside the repo.
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, seed):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def steadiness(args):
    values = {}
    units = {}
    shares = []
    for i in range(args.repeat):
        seed = args.seed + i
        r = run_once(args, seed)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stdout.write(r.stdout)
            sys.exit("perfbench: seed %d failed (exit %d)" % (seed, r.returncode))
        res = json.loads(lines[-1])
        shares.append((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
    print("%-32s %-6s %12s %12s %12s %10s %10s" %
          ("metric", "unit", "median", "q1", "q3", "range/med", "iqr/med"))
    summary = {}
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        rng = (max(v) - min(v)) / med if med else 0.0
        iqr = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "range_share": rng,
                         "iqr_share": iqr, "unit": units[name], "values": v}
        print("%-32s %-6s %12.5g %12.5g %12.5g %10.4f %10.4f" %
              (name, units[name], med, q1, q3, rng, iqr))
    print("failed/attempted per run: %s" % shares)
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run this many seeds from --seed on")
    args = p.parse_args()
    build()
    if args.repeat > 0:
        steadiness(args)
        return
    r = run_once(args, args.seed)
    sys.stdout.write(r.stdout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
