#!/usr/bin/env python3
"""Steadiness check of the benchmark: run each workload N times in
two sets, each run with its own seed, and print per set every
end-to-end metric's median, quartiles and spread (interquartile range
as a share of the median), then how far the second set's median moved
from the first's. The bounds in BENCHMARK.json were set from this.

    python3 perfbench/steady.py [--runs N] [--workload NAME ...]

Both sets run each named workload in turn, so the two medians of a
workload are taken minutes apart. To compare sets taken further
apart, run the command twice and compare the two reports.

Exit status 1 when a run fails, the failed share differs between runs,
a spread passes its metric's bound, or a median moves by more than the
bound in either direction; setup_s is held to the same rules. A spread
above a third of the bound, the aim for a steady metric, is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    medians = {}
    shares = {}
    for s in range(2):
        for wl in workloads:
            # Disjoint seeds per set, as two separate sets would use.
            runs = [one_run(wl, 1 + s * args.runs + i, spec["run_seconds"])
                    for i in range(args.runs)]
            share = shares.setdefault(wl, set())
            share.update(r["failed"] / r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"set {s + 1} {wl}: correct={correct} "
                  f"failed/attempted={sorted(share)}")
            ok &= correct and len(share) == 1
            for name, m in metrics.items():
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                verdict = ""
                if spread > m["bound"]:
                    verdict = "  SPREAD > bound"
                    ok = False
                elif spread > m["bound"] / 3:
                    verdict = "  spread > bound/3"
                key = (wl, name)
                if key in medians:
                    base = medians[key]
                    worse = (med - base) / base if m["better"] == "lower" \
                        else (base - med) / base
                    # Either set may be the baseline, so the move is
                    # measured against the smaller median.
                    move = abs(med - base) / min(med, base)
                    verdict += f"  drift {worse:+.3f} (|move| {move:.3f})"
                    if move > m["bound"]:
                        verdict += " > bound"
                        ok = False
                else:
                    medians[key] = med
                print(f"  {name:12s} {m['unit']:3s} q1 {q1:11.6g} "
                      f"median {med:11.6g} q3 {q3:11.6g} "
                      f"spread {spread:6.3f} (bound {m['bound']}){verdict}",
                      flush=True)
                print("    runs " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
