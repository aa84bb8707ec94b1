#!/usr/bin/env python3
"""Append one parent-vs-change perf record to BENCH_<workload>.json.

    python3 tools/bench_record.py --workload edge-window \\
        --parent runs/parent-seed*.log --change runs/change-seed*.log \\
        [--parent-trace runs/parent-trace.log --change-trace runs/change-trace.log] \\
        [--note "what changed"]

Each input file is the standard output of one `perfbench/run.py` run: its
`provenance {...}` line gives the seed, git SHA and nproc, and its last line
is the JSON result. Untraced runs (`--trace 0`) give the end-to-end metrics;
one traced run (`--trace 1`) per side gives the per-layer values. Pairs are
matched by seed. Run from the repository root; the metric names, units and
directions come from BENCHMARK.json, and the record is appended to
BENCH_<workload>.json there (created as a JSON list if missing).
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path.cwd()


def load(path):
    """(provenance dict, result dict) of one run.py output file."""
    lines = [l for l in pathlib.Path(path).read_text().splitlines() if l.strip()]
    prov = next((json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance {")), None)
    if prov is None or not lines[-1].startswith("{"):
        sys.exit(f"bench_record: {path} is not a complete run.py output")
    return prov, json.loads(lines[-1])


def one(values, what):
    vals = set(values)
    if len(vals) != 1:
        sys.exit(f"bench_record: runs disagree on {what}: {sorted(vals)}")
    return vals.pop()


def summary(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def side(paths, workload, traced):
    runs = [load(p) for p in paths]
    for prov, res in runs:
        if prov["workload"] != workload or prov["trace"] != ("true" if traced else "false"):
            sys.exit(f"bench_record: a run of {prov['workload']} trace={prov['trace']} was given "
                     f"as {workload} trace={traced}")
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--parent-trace")
    ap.add_argument("--change-trace")
    ap.add_argument("--note", default="")
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": side(a.parent, a.workload, False), "change": side(a.change, a.workload, False)}
    seeds = {k: [int(p["seed"]) for p, _ in runs] for k, runs in sides.items()}
    if sorted(seeds["parent"]) != sorted(seeds["change"]):
        sys.exit(f"bench_record: parent seeds {seeds['parent']} and change seeds {seeds['change']} differ")
    record = {
        "workload": a.workload,
        "parent": one((p["git_sha"] for p, _ in sides["parent"]), "the parent SHA"),
        "change": one((p["git_sha"] for p, _ in sides["change"]), "the change SHA"),
        "nproc": int(one((p["nproc"] for runs in sides.values() for p, _ in runs), "nproc")),
        "seeds": sorted(seeds["parent"]),
        "seconds": float(one((p["seconds"] for runs in sides.values() for p, _ in runs), "run length")),
        "quartiles": "Python statistics.quantiles, inclusive method",
        "note": a.note,
        "failed": {k: f"{sum(r['failed'] for _, r in runs)}/{sum(r['attempted'] for _, r in runs)}"
                   for k, runs in sides.items()},
        "end_to_end": {},
        "per_layer": {},
    }
    by_seed = {k: {int(p["seed"]): r["metrics"] for p, r in runs} for k, runs in sides.items()}
    for m in spec["end_to_end"]:
        name = m["name"]
        per = {k: [by_seed[k][s][name]["value"] for s in record["seeds"]] for k in sides}
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(per["parent"], per["change"]))
        record["end_to_end"][name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": summary(per["parent"]), "change": summary(per["change"]),
            "change_wins": f"{wins}/{len(record['seeds'])}",
        }
    if a.parent_trace and a.change_trace:
        traced = {k: load(path) for k, path in (("parent", a.parent_trace), ("change", a.change_trace))}
        record["per_layer"]["seed"] = int(one((p["seed"] for p, _ in traced.values()), "the traced seed"))
        for m in spec["per_layer"]:
            name = m["name"]
            record["per_layer"][name] = {"unit": m["unit"],
                                         **{k: r["metrics"][name]["value"] for k, (_, r) in traced.items()}}
    out = ROOT / f"BENCH_{a.workload}.json"
    records = json.loads(out.read_text()) if out.is_file() else []
    records.append(record)
    out.write_text(json.dumps(records, indent=2) + "\n")
    print(f"bench_record: appended record {len(records)} to {out.name}")


if __name__ == "__main__":
    main()
