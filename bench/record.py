"""Run the benchmark over several seeds and summarise it as one point of
the bench trajectory.

    python3 bench/record.py --label seed --seeds 1-10 --trace-seeds 1-2 \\
        --out bench/trajectory/BENCH_0.json

For every workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed with ``--trace 0`` (and once per trace seed with ``--trace 1``), one
run at a time, at the run length BENCHMARK.json fixes.  Each metric gets
its median, quartiles and spread, (q3 - q1) / median, which is checked
against the metric's bound.  Exits 1 when a run is incorrect or any
end-to-end spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env, lines[:-1]


def _summary(values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="what was measured, e.g. the commit")
    p.add_argument("--seeds", default="1-10", help="trace-0 seeds, lo-hi")
    p.add_argument("--trace-seeds", default="1-2", help="trace-1 seeds")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    doc = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        e2e, layers, correct, notes = {}, {}, True, []
        for trace, seeds, store in ((0, _seeds(args.seeds), e2e),
                                    (1, _seeds(args.trace_seeds), layers)):
            for seed in seeds:
                result, env, lines = _run(name, seed, seconds, trace)
                doc["env"] = env
                correct &= result["correct"] and result["failed"] == 0
                notes += [f"seed {seed} trace {trace}: {l}" for l in lines
                          if not l.startswith("env ")]
                for metric, v in result["metrics"].items():
                    store.setdefault(metric, []).append(v["value"])
                print(f"{name} seed {seed} trace {trace}: correct="
                      f"{result['correct']}", flush=True)
        summary = {
            "correct": correct,
            "end_to_end": {m: _summary(v, bounds.get(m))
                           for m, v in e2e.items()},
            "per_layer": {m: _summary(v) for m, v in layers.items()},
            "notes": notes,
        }
        doc["workloads"][name] = summary
        ok &= correct
        for metric, s in summary["end_to_end"].items():
            within = s["spread"] is None or s["spread"] <= s["bound"]
            ok &= within
            print(f"{name:16s} {metric:12s} median {s['median']:.6g} "
                  f"spread {s['spread'] or 0.0:.4f} bound {s['bound']}"
                  f"{'' if within else '  OVER'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
