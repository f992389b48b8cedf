#!/usr/bin/env python3
"""Repeat, compare and self-check cartbench runs.

Run from the repository root:

  python3 cartbench/compare.py runs --workload halo-latency --seeds 1-10 --out a.json
  python3 cartbench/compare.py spread a.json
  python3 cartbench/compare.py compare a.json b.json
  python3 cartbench/compare.py selfcheck --seeds 1-5
  python3 cartbench/compare.py selfcheck --base a.json --same b.json --seeds 21-30

`runs` executes the command in BENCHMARK.json once per seed (or a built
binary given with --bin) and stores every end-to-end metric value.
`spread` reports each metric's interquartile range over its median, as
`statistics.quantiles(values, n=4)` gives the quartiles, against the
metric's bound from BENCHMARK.json. `compare` flags every metric whose
median in the second set is worse than in the first by more than its
bound. `selfcheck` shows that `compare` catches a known slowdown: it
measures every workload twice unchanged, then once more with a fixed
delay spun inside every timed operation of one workload
(--inject-delay-us), and checks that the unchanged pair flags nothing and
the injected pair flags exactly that workload's latency and throughput.
Given --base and --same (two `runs` files of every workload), it reuses
them and only measures the injected set.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def load_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(cmd, workload, seed, seconds, trace=0, inject_us=0.0):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    if inject_us:
        args += ["--inject-delay-us", str(inject_us)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(args)}: outputs incorrect: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def collect(cmd, workloads, seeds, seconds, inject=None):
    """{workload: {metric: [values]}}; `inject` = (workload, µs)."""
    out = {}
    for w in workloads:
        per = {}
        for s in seeds:
            us = inject[1] if inject and inject[0] == w else 0.0
            for k, v in run_once(cmd, w, s, seconds, 0, us).items():
                per.setdefault(k, []).append(v)
            print(f"  {w} seed {s} done", file=sys.stderr)
        out[w] = per
    return out


def bounds(spec):
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def spread_rows(data, spec):
    rows = []
    for w, per in data.items():
        for name, (bound, _) in bounds(spec).items():
            vals = per[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else 0.0
            rows.append((w, name, med, rel, bound))
    return rows


def worse_by(a, b, better):
    """Relative worsening of median b against median a."""
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return 0.0
    return (mb - ma) / ma if better == "lower" else (ma - mb) / ma


def flags(a, b, spec):
    out = []
    for w in a:
        for name, (bound, better) in bounds(spec).items():
            d = worse_by(a[w][name], b[w][name], better)
            if d > bound:
                out.append((w, name, d, bound))
    return out


def cmd_of(args, spec):
    return [args.bin] if args.bin else spec["command"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="what", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--inject-delay-us", type=float, default=0.0)
    r.add_argument("--bin")
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    k = sub.add_parser("selfcheck")
    k.add_argument("--seeds", default="1-5")
    k.add_argument("--seconds", type=float)
    k.add_argument("--workload", default="halo-bulk")
    k.add_argument("--inject-delay-us", type=float, default=100.0)
    k.add_argument("--bin")
    k.add_argument("--base", help="`runs` file of every workload")
    k.add_argument("--same", help="second `runs` file of every workload")
    args = ap.parse_args()
    spec = load_spec()

    if args.what == "runs":
        seconds = args.seconds or spec["run_seconds"]
        inject = None
        if args.inject_delay_us:
            inject = (args.workload[0], args.inject_delay_us)
        data = collect(cmd_of(args, spec), args.workload, parse_seeds(args.seeds),
                       seconds, inject)
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
        return 0

    if args.what == "spread":
        with open(args.file) as f:
            data = json.load(f)
        wide = 0
        for w, name, med, rel, bound in spread_rows(data, spec):
            # setup_s is exempt: only its median has to repeat.
            ok = rel < bound / 3 or name == "setup_s"
            wide += not ok
            print(f"{w:<14} {name:<14} median {med:>14.6f}  IQR/median {rel:7.4f}"
                  f"  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
        return 1 if wide else 0

    if args.what == "compare":
        with open(args.base) as f:
            a = json.load(f)
        with open(args.new) as f:
            b = json.load(f)
        found = flags(a, b, spec)
        for w, name, d, bound in found:
            print(f"REGRESSION {w} {name}: worse by {d:.3f} > bound {bound}")
        if not found:
            print("no metric worse than its bound")
        return 1 if found else 0

    # selfcheck
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    cmd = cmd_of(args, spec)
    if args.base and args.same:
        with open(args.base) as f:
            base = json.load(f)
        with open(args.same) as f:
            same = json.load(f)
    else:
        print("base set", file=sys.stderr)
        base = collect(cmd, workloads, seeds, seconds)
        print("unchanged set", file=sys.stderr)
        same = collect(cmd, workloads, seeds, seconds)
    print(f"injected set ({args.inject_delay_us} us in {args.workload})", file=sys.stderr)
    slow = dict(same)
    slow[args.workload] = collect(cmd, [args.workload], seeds, seconds,
                                  (args.workload, args.inject_delay_us))[args.workload]
    unchanged_flags = flags(base, same, spec)
    injected_flags = flags(base, slow, spec)
    expected = {(args.workload, m) for m in ("op_us_p50", "op_us_p90", "ops_per_s")}
    got = {(w, m) for w, m, _, _ in injected_flags}
    for w, m, d, b in unchanged_flags:
        print(f"unchanged pair flagged {w} {m}: {d:.3f} > {b}")
    for w, m, d, b in injected_flags:
        print(f"injected pair flagged {w} {m}: {d:.3f} > {b}")
    ok = not unchanged_flags and got == expected
    print("SELFCHECK " + ("PASS" if ok else "FAIL") +
          f": unchanged flags {len(unchanged_flags)}, injected flags {sorted(got)},"
          f" expected {sorted(expected)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
