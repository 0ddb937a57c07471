#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload read_url --seed 1 --seconds 10 --trace 0

builds the `perfbench` package (release, offline, into $CARGO_TARGET_DIR,
default `.bench_build`) and runs it. The last line of stdout is the JSON
result `{correct, attempted, failed, metrics}`; the exit code is 0 only
when every answer was correct. End-to-end figures are scaled to a
reference host speed measured in the same run (src/calib.rs); the raw
figures are on the `samples` line. A traced run also writes its spans to
`<target dir>/perfbench-trace/<workload>.csv` (the workload's last traced
run).

Two helper modes:

    python3 perfbench/run.py --steady 10 [--workload W ...] [--trace 0|1] [--seed 1]
        runs each workload N times with seeds seed..seed+N-1 and prints
        each metric's median, quartiles and spread, against the bounds
        in BENCHMARK.json.

    python3 perfbench/run.py --selftest
        runs every workload at a tiny scale, traced and untraced, and
        checks the output against BENCHMARK.json and the ledger's sums.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target_dir())
    # Keep cargo's own caches inside the checkout too.
    env["CARGO_HOME"] = str(target_dir() / "cargo-home")
    return env


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PKG / "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=cargo_env(), stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode)
    return target_dir() / "release" / "perfbench"


def tool_output(cmd):
    # GIT_CEILING_DIRECTORIES keeps git from looking above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance_args():
    rustc = tool_output(["rustc", "--version"]) or "unknown"
    rev = tool_output(["git", "rev-parse", "HEAD"])
    if rev is None:
        git = "none"
    else:
        dirty = tool_output(["git", "status", "--porcelain", "--untracked-files=no"])
        git = rev + ("+dirty" if dirty else "")
    return ["--rustc", rustc, "--git", git]


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Run the benchmark once; returns (exit code, parsed JSON lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                str(target_dir() / "perfbench-trace" / f"{workload}.csv")]
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    lines = []
    for line in r.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return r.returncode, lines


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def steady(args, binary):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for w in workloads:
        values = {}
        for i in range(args.steady):
            seed = args.seed + i
            code, lines = run_once(binary, w, seed, args.seconds, args.trace,
                                   provenance_args() + ["--run-index", str(i)], echo=False)
            if code != 0 or not lines:
                print(f"{w} seed {seed}: run failed (exit {code})", file=sys.stderr)
                sys.exit(1)
            for name, m in lines[-1]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The unscaled figures and the host walk rate, for comparison
            # (see src/calib.rs).
            for line in lines:
                samples = line.get("samples", {})
                for name, v in samples.get("raw", {}).items():
                    values.setdefault("raw." + name, []).append(v)
                for name in ("wire_p99_us", "wire_p999_us"):
                    if name in samples:
                        values.setdefault("raw." + name, []).append(samples[name])
                if "host_msteps" in samples:
                    values.setdefault("host_msteps", []).append(samples["host_msteps"])
                steal = line.get("provenance", {}).get("host_steal_frac")
                if steal is not None:
                    values.setdefault("host_steal_frac", []).append(steal)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in lines[-1]["metrics"].items()), flush=True)
        rows = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": v}
        report[w] = rows
        print(f"\n{w}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, r in rows.items():
            b = r["bound"]
            flag = ""
            if b is not None:
                flag = "ok" if r["spread"] <= b / 3 else ("within bound" if r["spread"] <= b else "OVER")
            print(f"  {name:28} {r['median']:12.5g} {r['q1']:12.5g} {r['q3']:12.5g} "
                  f"{r['spread']:8.4f} {b if b is not None else '':>6} {flag}")
    out = target_dir() / f"perfbench-steady-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {out}")


def selftest(binary):
    """Tiny-scale checks of what every run must print."""
    spec = load_spec()
    layers = json.loads((PKG / "layers.json").read_text())
    errors = []
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    mapped = {row["metric"] for row in layers["layers"]}
    for name in declared[1]:
        if name not in mapped:
            errors.append(f"per-layer metric {name} has no row in layers.json")
    # Layer costs that are a span minus its children: never negative.
    span_self = ["protocol.req_encode_ns", "protocol.req_decode_ns", "protocol.resp_encode_ns",
                 "protocol.resp_decode_ns", "server.pipeline_ns", "client.send_ns",
                 "client.recv_wait_ns", "trie.batch_ns"]
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_once(binary, w, 7, 2, trace, ["--keys", "20000"], echo=False)
            tag = f"{w} trace={trace}"
            if code != 0 or not lines:
                errors.append(f"{tag}: exit {code}")
                continue
            result = lines[-1]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                errors.append(f"{tag}: correct={result.get('correct')} failed={result.get('failed')}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared[trace]:
                errors.append(f"{tag}: metrics {got} differ from BENCHMARK.json {declared[trace]}")
            if not any("provenance" in line for line in lines):
                errors.append(f"{tag}: no provenance line")
            if trace:
                ledger = next((l["ledger"] for l in lines if "ledger" in l), None)
                if ledger is None:
                    errors.append(f"{tag}: no ledger line")
                    continue
                stack = ledger["trie_ns"] + ledger["sync_self_ns"] + ledger["shard_inline_self_ns"]
                if abs(stack - ledger["index_ns"]) > 1e-6 * ledger["index_ns"]:
                    errors.append(f"{tag}: layer self times sum to {stack}, index costs {ledger['index_ns']}")
                total = ledger["index_ns"] + ledger["protocol_ns"] + ledger["socket_ns"]
                if abs(total - ledger["wire_ns"]) > 1e-6 * ledger["wire_ns"]:
                    errors.append(f"{tag}: ledger sums to {total}, wire costs {ledger['wire_ns']}")
                metrics = result["metrics"]
                if abs(metrics["socket.self_ns"]["value"] - ledger["socket_ns"]) > 1e-6:
                    errors.append(f"{tag}: socket.self_ns is not the ledger's remainder")
                shares = sum(metrics[s]["value"] for s in ("share.index", "share.protocol", "share.socket"))
                if abs(shares - 1.0) > 1e-9:
                    errors.append(f"{tag}: shares sum to {shares}")
                for name in span_self:
                    if metrics[name]["value"] < 0:
                        errors.append(f"{tag}: {name} = {metrics[name]['value']} < 0")
            print(f"{tag}: checked", flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-index", type=int, default=0)
    p.add_argument("--keys", type=int)
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    if args.steady:
        steady(args, binary)
        return
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload")
    extra = provenance_args() + ["--run-index", str(args.run_index)]
    if args.keys:
        extra += ["--keys", str(args.keys)]
    code, _ = run_once(binary, args.workload[0], args.seed, args.seconds, args.trace, extra)
    sys.exit(code)


if __name__ == "__main__":
    main()
