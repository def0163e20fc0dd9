#!/usr/bin/env python3
"""Build and run the STANCE end-to-end benchmark (stdlib only).

One workload, as BENCHMARK.json's command runs it; the last stdout line is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1):

  python3 bench/e2e/run.py --workload static_paper --seed 1 --seconds 20 --trace 0

Developer commands:

  run      every workload in its own process; prints "workload metric value
           unit" lines and writes one results JSON
  trace    traced run(s): the per-layer table, the span table with self
           times, the Chrome trace path, and the tracing overhead
  compare  A B  alternating parent (A) / change (B) runs of two checkouts,
           judged by the rules in bench/e2e/README.md

Everything is built into build-e2e/ at the checkout root from the checkout's
own sources (bench/e2e/CMakeLists.txt) before anything runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
PAIRS = 10  # parent/change pairs per workload in compare


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def build(root):
    """Configure once, then (re)build stance_e2e; returns the binary path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no STANCE library sources (CMakeLists.txt, src/) to build")
    build_dir = root / "build-e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "bench" / "e2e"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "stance_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "stance_e2e"


def run_binary(binary, workload, seed, seconds, trace_path=None, quick=False, echo=True):
    """Run one workload in its own process; returns its results object."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    if quick:
        cmd.append("--quick")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} exited {p.returncode} without a result")
    result["exit_code"] = p.returncode
    return result


def select(result, metric_specs, key):
    """The metrics BENCHMARK.json names, checked for presence and unit."""
    got = result.get(key, {})
    out = {}
    for m in metric_specs:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"]:
            fail(f"{result['workload']}: metric {m['name']} [{m['unit']}] missing or mis-unit")
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def contract(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build(ROOT)
    trace_path = None
    if args.trace:
        (ROOT / "build-e2e" / "trace").mkdir(parents=True, exist_ok=True)
        trace_path = ROOT / "build-e2e" / "trace" / f"{args.workload}-seed{args.seed}.json"
    r = run_binary(binary, args.workload, args.seed, args.seconds, trace_path)
    if r["exit_code"] != 0 and r.get("correct", False):
        fail(f"{args.workload} exited {r['exit_code']}")
    metrics = select(r, spec["per_layer"] if args.trace else spec["end_to_end"],
                     "per_layer" if args.trace else "metrics")
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if r["exit_code"] == 0 else 1


def workload_names(spec, arg):
    names = [w["name"] for w in spec["workloads"]]
    if not arg or arg == "all":
        return names
    chosen = arg.split(",")
    for n in chosen:
        if n not in names:
            fail(f"unknown workload {n}")
    return chosen


def results_dir():
    d = ROOT / "build-e2e" / "results"
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_run(args):
    spec = load_spec()
    binary = build(ROOT)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results, ok = [], True
    for w in workload_names(spec, args.workloads):
        r = run_binary(binary, w, args.seed, seconds, quick=args.quick)
        select(r, spec["end_to_end"], "metrics")
        print(f"{w} fail_frac {r['failed'] / max(1, r['attempted'])} ratio", flush=True)
        ok = ok and r["exit_code"] == 0 and r["correct"] and r["failed"] == 0
        results.append(r)
    out = results_dir() / f"run-seed{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds, "quick": args.quick,
                               "results": results}, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


def cmd_trace(args):
    spec = load_spec()
    binary = build(ROOT)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    (ROOT / "build-e2e" / "trace").mkdir(parents=True, exist_ok=True)
    ok = True
    for w in workload_names(spec, args.workloads):
        untraced = run_binary(binary, w, args.seed, seconds, echo=False)
        path = ROOT / "build-e2e" / "trace" / f"{w}-seed{args.seed}.json"
        traced = run_binary(binary, w, args.seed, seconds, trace_path=path, echo=False)
        ok = ok and untraced["exit_code"] == 0 and traced["exit_code"] == 0
        print(f"\n== {w} (seed {args.seed}) — per-layer metrics; 0 = layer bypassed")
        for m in spec["per_layer"]:
            v = traced["per_layer"][m["name"]]["value"]
            print(f"  {m['name']:<36} {v:>14.6g} {m['unit']}")
        print(f"  {'span':<28} {'count':>8} {'total ms':>12} {'self ms':>12}")
        for s in traced["spans"]:
            print(f"  {s['name']:<28} {s['count']:>8} {s['total_ms']:>12.3f} {s['self_ms']:>12.3f}")
        base = untraced["metrics"]["op_ms.p50"]["value"]
        with_trace = traced["metrics"]["op_ms.p50"]["value"]
        print(f"  tracing overhead: op_ms.p50 {base:.4f} -> {with_trace:.4f} ms "
              f"({100.0 * (with_trace / base - 1.0):+.1f}%)")
        print(f"  chrome trace: {path} ({traced['spans_dropped']} spans dropped)")
    return 0 if ok else 1


# --- compare ---------------------------------------------------------------


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(parent, change, better, bound):
    """Status of one metric on one workload from paired runs (lists of
    values, pair i of each list ran with the same seed)."""
    sign = 1.0 if better == "higher" else -1.0
    pmed, cmed = statistics.median(parent), statistics.median(change)
    parent_iqr = iqr(parent)
    spread = parent_iqr / abs(pmed) if pmed else 0.0
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    n = min(len(parent), len(change))
    gain = n >= 10 and 10 * wins >= 9 * n and sign * (cmed - pmed) > parent_iqr
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound:
        if all_better:
            status = "improved" if gain else "better"
        elif all_worse and worse_by > bound:
            status = "regressed"
        else:
            status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    elif gain:
        status = "improved"
    else:
        status = "unchanged"
    return {"status": status, "parent_median": pmed, "change_median": cmed,
            "parent_iqr": parent_iqr, "change_iqr": iqr(change),
            "spread": spread, "worse_by": worse_by, "wins": wins, "pairs": n, "bound": bound}


FAILING = {"regressed", "missing", "wrong"}


def analyze(parent_runs, change_runs, spec, names=None):
    """parent_runs / change_runs: {workload: [result, ...]} in pair order.
    Returns one row per workload x metric, plus a fail_frac row per workload,
    for `names` (default: every workload of the spec)."""
    rows = []
    for w in names or [x["name"] for x in spec["workloads"]]:
        pr, cr = parent_runs.get(w, []), change_runs.get(w, [])
        if not pr or not cr:
            rows.append({"workload": w, "metric": "*", "status": "missing"})
            continue
        wrong = any(not r.get("correct", False) for r in cr)
        pfrac = sum(r["failed"] for r in pr) / max(1, sum(r["attempted"] for r in pr))
        cfrac = sum(r["failed"] for r in cr) / max(1, sum(r["attempted"] for r in cr))
        rows.append({"workload": w, "metric": "fail_frac", "parent_median": pfrac,
                     "change_median": cfrac, "bound": 0.0,
                     "status": "wrong" if wrong else ("regressed" if cfrac > pfrac else "unchanged")})
        for m in spec["end_to_end"]:
            try:
                pv = [r["metrics"][m["name"]]["value"] for r in pr]
                cv = [r["metrics"][m["name"]]["value"] for r in cr]
            except KeyError:
                rows.append({"workload": w, "metric": m["name"], "status": "missing"})
                continue
            row = judge(pv, cv, m["better"], m["bound"])
            row.update({"workload": w, "metric": m["name"]})
            rows.append(row)
    return rows


def print_rows(rows):
    print(f"\n{'workload':<18} {'metric':<12} {'parent med':>12} {'IQR':>10} "
          f"{'change med':>12} {'IQR':>10} {'worse by':>9} {'bound':>6} {'wins':>6}  status")
    for r in rows:
        if "parent_iqr" not in r:
            pm, cm = r.get("parent_median", float("nan")), r.get("change_median", float("nan"))
            print(f"{r['workload']:<18} {r['metric']:<12} {pm:>12.5g} {'':>10} {cm:>12.5g} "
                  f"{'':>10} {'':>9} {'+0' if r['metric'] == 'fail_frac' else '':>6} {'':>6}  "
                  f"{r['status']}")
            continue
        print(f"{r['workload']:<18} {r['metric']:<12} {r['parent_median']:>12.5g} "
              f"{r['parent_iqr']:>10.3g} {r['change_median']:>12.5g} {r['change_iqr']:>10.3g} "
              f"{100 * r['worse_by']:>8.2f}% {100 * r['bound']:>5.1f}% "
              f"{r['wins']:>3}/{r['pairs']:<2}  {r['status']}")


def cmd_compare(args):
    spec = load_spec()
    sides = {"parent": Path(args.a).resolve(), "change": Path(args.b).resolve()}
    binaries = {label: build(root) for label, root in sides.items()}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workload_names(spec, args.workloads)
    runs = {label: {w: [] for w in names} for label in sides}
    for i in range(PAIRS):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            for label in order:
                r = run_binary(binaries[label], w, seed, seconds, echo=False)
                runs[label][w].append(r)
                print(f"pair {i + 1}/{PAIRS} {w} {label} seed {seed}: "
                      f"op_ms.p50 {r['metrics']['op_ms.p50']['value']:.4f}", flush=True)
    rows = analyze(runs["parent"], runs["change"], spec, names)
    print_rows(rows)
    out = results_dir() / f"compare-{int(time.time())}.json"
    out.write_text(json.dumps({"parent": str(sides["parent"]), "change": str(sides["change"]),
                               "seconds": seconds, "runs": runs, "rows": rows}, indent=1))
    print(f"wrote {out}")
    return 1 if any(r["status"] in FAILING for r in rows) else 0


def main(argv):
    if argv and not argv[0].startswith("-"):
        p = argparse.ArgumentParser(prog="run.py")
        sub = p.add_subparsers(dest="cmd", required=True)
        r = sub.add_parser("run")
        t = sub.add_parser("trace")
        c = sub.add_parser("compare")
        c.add_argument("a")
        c.add_argument("b")
        for q in (r, t, c):
            q.add_argument("--workloads", help="comma-separated; default: all")
            q.add_argument("--seed", type=int, default=1)
            q.add_argument("--seconds", type=float)
        r.add_argument("--quick", action="store_true")
        a = p.parse_args(argv)
        return {"run": cmd_run, "trace": cmd_trace, "compare": cmd_compare}[a.cmd](a)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return contract(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
