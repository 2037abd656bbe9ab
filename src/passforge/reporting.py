"""Result tables, geometric means, and content digests."""
from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

#: The keys of a ``passforge search`` record that ``report`` reads, with
#: their JSON types.  Random and genetic records also carry an int ``seed``.
RECORD_TYPES = {"design": str, "method": str, "sequence": list,
                "cycles": (int, float), "baseline_cycles": (int, float),
                "evaluations": int}


def geomean(values) -> float:
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        return 1.0
    return float(np.exp(np.mean(np.log(np.maximum(arr, 1e-12)))))


def report(results: list[dict]) -> tuple[str, str]:
    """(csv_text, human_summary) of search records: one row per record, with
    its seed (empty for a method that takes none), then per method the
    geometric mean of the cycles ratio against the no-pass baseline and the
    summed evaluations: the passes a search baseline ran, or rl's priced
    steps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["design", "method", "seed", "cycles", "baseline_cycles",
                     "cycles_ratio", "evaluations", "sequence"])
    by_method: dict[str, list[dict]] = {}
    for r in sorted(results, key=lambda r: (r["design"], r["method"],
                                            r.get("seed", -1))):
        by_method.setdefault(r["method"], []).append(r)
        base = r["baseline_cycles"]
        writer.writerow([
            r["design"], r["method"], r.get("seed", ""),
            f"{r['cycles']:.0f}", f"{base:.0f}",
            f"{r['cycles'] / base:.4f}" if base else "", r["evaluations"],
            " ".join(r["sequence"]),
        ])
    lines = ["method           n   geomean(cycles)  evaluations"]
    for method in sorted(by_method):
        rs = by_method[method]
        gm = geomean(r["cycles"] / r["baseline_cycles"] for r in rs
                     if r["baseline_cycles"])
        evals = sum(r["evaluations"] for r in rs)
        writer.writerow([f"geomean[{method}]", method, "", "", "",
                         f"{gm:.4f}", evals, ""])
        lines.append(f"{method:15s} {len(rs):3d}   {gm:14.4f}  {evals:11d}")
    return buf.getvalue(), "\n".join(lines)


def content_digest(*paths_or_bytes) -> str:
    h = hashlib.sha256()
    for item in paths_or_bytes:
        if isinstance(item, bytes):
            h.update(item)
        else:
            with open(item, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]
