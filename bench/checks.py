"""Output checks for one cli run, and digests of its byte-compared files.

A run passes when the cli exited 0, the summary says it did not diverge,
every final estimate is a finite number and, for oracle runs, the final MSE
lies in the workload's band around the CRLB average and the trial-averaged
estimates lie within the workload's gap of the WLS means.  Any failure here
counts the run in `failed_runs`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Checks, ConfigSpec


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_run(outdir: Path, spec: ConfigSpec, checks: Checks, rc) -> dict:
    """Inspect one run's outputs; returns a record with `problems`."""
    rec = {"label": spec.label, "rc": rc, "problems": []}
    problems = rec["problems"]
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        rec["digests"] = {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "summary.json")}
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable outputs: {exc}")
        return rec

    if summary.get("diverged") is not False:
        problems.append(f"diverged={summary.get('diverged')!r}")
    estimates = summary.get("final_estimates") or {}
    if not estimates:
        problems.append("no final estimates")
    bad = sorted(a for a, v in estimates.items() if not _finite(v))
    if bad:
        problems.append(f"non-finite final estimates at agents {bad[:5]}")
    rec["estimates"] = estimates

    rounds = [spec.l_max if c is None else c
              for c in summary.get("per_trial_converged_at") or []]
    rec["agent_rounds"] = spec.agents * sum(rounds)
    rec["rounds_max"] = max(rounds, default=0)
    rec["trace_bytes"] = (outdir / "trace.csv").stat().st_size

    if checks.mse_to_crlb is not None:
        mse, crlb = summary.get("mse_avg"), summary.get("crlb_avg")
        ratio = mse / crlb if _finite(mse) and _finite(crlb) and crlb > 0 \
            else float("nan")
        rec["mse_to_crlb"] = ratio
        lo, hi = checks.mse_to_crlb
        if not lo <= ratio <= hi:
            problems.append(f"mse_to_crlb {ratio!r} outside [{lo}, {hi}]")
    if checks.wls_gap_hz is not None:
        wls = summary.get("wls_mean") or {}
        gaps = [abs(estimates[a] - v) for a, v in wls.items()
                if _finite(v) and _finite(estimates.get(a))]
        gap = max(gaps) if gaps and len(gaps) == len(wls) else float("nan")
        rec["wls_gap_hz"] = gap
        if not gap <= checks.wls_gap_hz:
            problems.append(f"max |mean - wls_mean| {gap!r} Hz exceeds "
                            f"{checks.wls_gap_hz} Hz")
    return rec


def check_pass(records: list[dict], checks: Checks) -> None:
    """Cross-config check within one pass: the two algorithms must agree
    where no oracle is attached.  Problems are added to both records."""
    if checks.algo_gap_hz is None or len(records) != 2:
        return
    a, b = (r.get("estimates") or {} for r in records)
    gaps = [abs(a[k] - b[k]) for k in a
            if k in b and _finite(a[k]) and _finite(b[k])]
    gap = max(gaps) if gaps and len(gaps) == len(a) == len(b) else float("nan")
    for r in records:
        r["algo_gap_hz"] = gap
        if not gap <= checks.algo_gap_hz:
            r["problems"].append(f"max |lsbp - bp| {gap!r} Hz exceeds "
                                 f"{checks.algo_gap_hz} Hz")
