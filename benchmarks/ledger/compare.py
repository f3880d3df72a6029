"""Compare two ledger reports: ``compare.py A.json B.json``.

One row per workload and end-to-end metric: both medians with their
quartiles, the ratio B/A *with its base*, and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

``same``        B's median is within the bound of A's;
``better``      B is better than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the quartile spread of either side is wider than the bound
                and the two quartile ranges overlap, so the runs cannot say.

``failed_share`` is compared exactly: any increase is ``worse``.  Exits
non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge stat ``b`` against base ``a`` (dicts with value, q1, q3)."""
    base = a["value"]
    if base == 0:
        return "same" if b["value"] == 0 else "unresolved"
    worsening = (b["value"] - base) / abs(base)
    if better == "higher":
        worsening = -worsening
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(base)
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, contract: dict) -> list[tuple]:
    """Rows ``(workload, metric, unit, stat_a, stat_b, verdict)``."""
    rows = []
    for entry in contract["workloads"]:
        name = entry["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            stat_a = run_a["end_to_end"][metric["name"]]
            stat_b = run_b["end_to_end"][metric["name"]]
            rows.append(
                (
                    name,
                    metric["name"],
                    metric["unit"],
                    stat_a,
                    stat_b,
                    verdict(stat_a, stat_b, metric["better"], metric["bound"]),
                )
            )
        share_a, share_b = run_a["failed_share"], run_b["failed_share"]
        rows.append(
            (
                name,
                "failed_share",
                "ratio",
                {"value": share_a, "q1": share_a, "q3": share_a},
                {"value": share_b, "q1": share_b, "q3": share_b},
                "worse"
                if share_b > share_a
                else "better"
                if share_b < share_a
                else "same",
            )
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    a, b = reports
    for label, report in zip("AB", reports):
        h = report["hygiene"]
        print(
            f"{label}: commit {h['commit'][:12]} python {h['python']} "
            f"nproc {h['nproc']} seed {h['seed']} "
            f"load {h['load_1min_start']:.2f}->{h['load_1min_end']:.2f}"
            + (" NOISY" if h["noisy"] else "")
        )
    print(
        f"{'workload':<19}{'metric':<16}{'A median [q1, q3]':<36}"
        f"{'B median [q1, q3]':<36}{'B/A':<22}verdict"
    )
    worse = 0
    for name, metric, unit, stat_a, stat_b, judged in compare(a, b, contract):
        cells = [
            f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {unit}"
            for s in (stat_a, stat_b)
        ]
        base = stat_a["value"]
        factor = (
            f"{stat_b['value'] / base:.3f}x of {base:.5g}" if base else "-"
        )
        print(
            f"{name:<19}{metric:<16}{cells[0]:<36}{cells[1]:<36}"
            f"{factor:<22}{judged}"
        )
        worse += judged == "worse"
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
