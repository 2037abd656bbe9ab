"""Result tables, geometric means, folds, and content digests."""
from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np


@dataclass
class MethodResult:
    design: str
    method: str
    cycles: float
    lut_proxy: float
    dsp: float
    baseline_cycles: float
    baseline_lut: float
    baseline_dsp: float
    sequence: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0
    evaluations: int = 0

    def to_dict(self) -> dict:
        return {
            "design": self.design, "method": self.method,
            "cycles": self.cycles, "lut_proxy": self.lut_proxy, "dsp": self.dsp,
            "baseline_cycles": self.baseline_cycles,
            "baseline_lut": self.baseline_lut, "baseline_dsp": self.baseline_dsp,
            "sequence": self.sequence, "wall_time_s": self.wall_time_s,
            "evaluations": self.evaluations,
        }

    @staticmethod
    def from_dict(d: dict) -> "MethodResult":
        return MethodResult(
            d["design"], d["method"], d["cycles"], d["lut_proxy"], d["dsp"],
            d["baseline_cycles"], d["baseline_lut"], d["baseline_dsp"],
            d.get("sequence", []), d.get("wall_time_s", 0.0),
            d.get("evaluations", 0))


def geomean(values) -> float:
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        return 1.0
    return float(np.exp(np.mean(np.log(np.maximum(arr, 1e-12)))))


def report(results: list[MethodResult]) -> tuple[str, str]:
    """(csv_text, human_summary): per-design rows plus per-method geometric
    means of the cycles / LUT / DSP ratios against the no-pass baseline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["design", "method", "cycles", "lut_proxy", "dsp",
                     "baseline_cycles", "cycles_ratio", "lut_ratio",
                     "dsp_ratio", "sequence"])
    by_method: dict[str, list[MethodResult]] = {}
    for r in sorted(results, key=lambda r: (r.design, r.method)):
        by_method.setdefault(r.method, []).append(r)
        writer.writerow([
            r.design, r.method, f"{r.cycles:.0f}", f"{r.lut_proxy:.0f}",
            f"{r.dsp:.0f}", f"{r.baseline_cycles:.0f}",
            f"{r.cycles / r.baseline_cycles:.4f}" if r.baseline_cycles else "",
            f"{r.lut_proxy / r.baseline_lut:.4f}" if r.baseline_lut else "",
            f"{r.dsp / r.baseline_dsp:.4f}" if r.baseline_dsp else "",
            " ".join(r.sequence),
        ])
    lines = ["method           n   geomean(cycles)  geomean(lut)  geomean(dsp)"]
    for method in sorted(by_method):
        rs = by_method[method]
        gm_c = geomean(r.cycles / r.baseline_cycles for r in rs
                       if r.baseline_cycles)
        gm_l = geomean(r.lut_proxy / r.baseline_lut for r in rs
                       if r.baseline_lut)
        gm_d = geomean(max(r.dsp, 1e-9) / max(r.baseline_dsp, 1e-9)
                       for r in rs)
        writer.writerow([f"geomean[{method}]", method, "", "", "", "",
                         f"{gm_c:.4f}", f"{gm_l:.4f}", f"{gm_d:.4f}", ""])
        lines.append(f"{method:15s} {len(rs):3d}   {gm_c:14.4f}  "
                     f"{gm_l:12.4f}  {gm_d:12.4f}")
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
