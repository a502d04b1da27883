"""Summarise the span files of traced runs, for comparison with ROADMAP's table.

Run from the root of a checkout, after ``run.py --trace 1`` runs:

    python3 perfbench/baseline_table.py .bench_out/spans-*.csv

For every span name it prints calls, symbols, and inclusive and self time
per symbol (inclusive counts child spans, as ROADMAP's one-off timings
did).  For every operation it prints the median traced wall time.
"""

import csv
import statistics
import sys
from collections import defaultdict


def summarise(paths):
    layers = defaultdict(lambda: [0, 0, 0, 0])  # calls, syms, incl ns, self ns
    ops = defaultdict(list)
    for path in paths:
        workload = path.rsplit("spans-", 1)[-1].rsplit("-seed", 1)[0]
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                dur = int(row["t1_ns"]) - int(row["t0_ns"])
                if row["name"] == "op":
                    ops[workload, row["op_name"]].append(dur / 1e6)
                    continue
                acc = layers[workload, row["name"]]
                acc[0] += 1
                acc[1] += int(row["syms"])
                acc[2] += dur
                acc[3] += int(row["self_ns"])
    return layers, ops


def main(paths):
    layers, ops = summarise(paths)
    print("workload,span,calls,symbols,incl_ns_per_sym,self_ns_per_sym,incl_ms_per_call")
    for (workload, name), (calls, syms, incl, own) in sorted(layers.items()):
        per_sym = (f"{incl / syms:.1f}", f"{own / syms:.1f}") if syms else ("", "")
        print(f"{workload},{name},{calls},{syms},{per_sym[0]},{per_sym[1]},{incl / 1e6 / calls:.3f}")
    print()
    print("workload,op,count,median_ms")
    for (workload, op), ms in sorted(ops.items()):
        print(f"{workload},{op},{len(ms)},{statistics.median(ms):.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
