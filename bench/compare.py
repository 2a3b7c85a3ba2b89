"""``python -m bench compare A.json B.json`` — do two ledger runs agree?

One row per (workload, end-to-end metric).  ``A`` is the base; the ratio is
``B / A``.  The verdict comes from the metric's direction and bound:

``ok``          B is within the bound of A (or better by less than it).
``improved``    B is better than A by more than the bound.
``regressed``   B is worse than A by more than the bound — or at all, for
                the metrics that repeat exactly (``robustness_pct``,
                ``failed_share``).
``unresolved``  the medians differ by more than the bound, but either run's
                own quartile spread is wider than the bound and the two
                runs' repetitions interleave, so the difference cannot be
                told from noise.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import metrics


def _interleave(a: list[float], b: list[float]) -> bool:
    """False when every repetition of one run beats every one of the other."""
    return not (max(a) < min(b) or max(b) < min(a))


def _spread(sample: dict) -> float:
    if "median" not in sample or not sample["median"]:
        return 0.0
    return abs(sample["q3"] - sample["q1"]) / abs(sample["median"])


def verdict(name: str, better: str, bound: float, a: dict, b: dict) -> tuple[str, float]:
    """Verdict and ``B / A`` ratio for one metric of one workload."""
    base, new = a["value"], b["value"]
    ratio = new / base if base else (1.0 if new == base else float("inf"))
    worse = new < base if better == "higher" else new > base
    if name in metrics.EXACT:
        if new == base:
            return "ok", ratio
        return ("regressed" if worse else "improved"), ratio
    change = abs(new - base) / abs(base) if base else float("inf")
    if change <= bound:
        return "ok", ratio
    noisy = max(_spread(a), _spread(b)) > bound
    if noisy and _interleave(a.get("samples") or [base], b.get("samples") or [new]):
        return "unresolved", ratio
    return ("regressed" if worse else "improved"), ratio


def compare_documents(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether it passes (no regression)."""
    contract = metrics.end_to_end()
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, sample_a in entry_a["end_to_end"].items():
            sample_b = entry_b["end_to_end"].get(name)
            if sample_b is None:
                continue
            spec = contract.get(name, {"better": "lower", "bound": 0.0})
            result, ratio = verdict(name, spec["better"], spec["bound"], sample_a, sample_b)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": sample_a["unit"],
                    "a": sample_a,
                    "b": sample_b,
                    "ratio": ratio,
                    "bound": 0.0 if name in metrics.EXACT else spec["bound"],
                    "verdict": result,
                }
            )
    passed = not any(row["verdict"] == "regressed" for row in rows)
    return rows, passed


def _cell(sample: dict) -> str:
    if "median" in sample:
        return "{value:.5g} (med {median:.5g} [{q1:.5g}..{q3:.5g}])".format(**sample)
    return f"{sample['value']:.5g}"


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14}{'metric':<16}{'unit':<6}{'A: floor (median [q1..q3])':<44}"
        f"{'B':<44}{'B/A':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14}{row['metric']:<16}{row['unit']:<6}{_cell(row['a']):<44}"
            f"{_cell(row['b']):<44}{row['ratio']:>8.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, passed = compare_documents(a, b)
    print(format_rows(rows))
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in
              ("ok", "improved", "regressed", "unresolved")}
    print("  ".join(f"{key}: {value}" for key, value in counts.items()))
    return 0 if passed else 1
