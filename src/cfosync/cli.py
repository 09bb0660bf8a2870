"""Command-line front end.

Runs a single configured experiment or a named preset batch, writing
trace.csv / summary.json per run.  Exit codes: 0 success, 2 invalid
configuration or unobservable system, 3 a run diverged (per-edge BP only),
4 numeric failure.  Errors print one machine-parseable line to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, config_to_text, load_config
from .errors import ConfigError, UnobservableError
from .metrics import RunTrace, write_summary, write_trace
from .netsim import run_experiment
from .presets import PRESET_NAMES, preset_configs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfosync",
        description="Distributed frequency-offset estimation simulator")
    p.add_argument("--config", type=Path, help="experiment config file")
    p.add_argument("--preset", choices=PRESET_NAMES,
                   help="run a named experiment batch instead of --config")
    p.add_argument("--algo", choices=("bp", "lsbp"), help="override algorithm")
    p.add_argument("--pdr", type=float, help="override packet delivery ratio")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--iters", type=int, help="override max iterations")
    p.add_argument("--trials", type=int, help="override Monte-Carlo trials")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--emit", choices=("csv", "json", "both"), default="both")
    p.add_argument("--oracle", action="store_true",
                   help="attach WLS/CRLB/spectral-radius reference columns")
    return p


# command-line option -> the config field it overrides when given
OVERRIDES = {"algo": "algorithm", "pdr": "pdr", "seed": "master_seed",
             "iters": "l_max", "trials": "trials"}


def _overrides(args) -> dict:
    out = {field: getattr(args, opt) for opt, field in OVERRIDES.items()
           if getattr(args, opt) is not None}
    if args.oracle:
        out["oracle"] = True
    return out


def _write_outputs(trace: RunTrace, cfg: ExperimentConfig, outdir: Path,
                   emit: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "run.cfg").write_text(config_to_text(cfg), encoding="utf-8")
    if emit in ("csv", "both"):
        write_trace(trace, outdir / "trace.csv")
    if emit in ("json", "both"):
        write_summary(trace, outdir / "summary.json")


def _describe(label: str, trace: RunTrace) -> str:
    bits = [f"iterations={trace.rows[-1].iteration if trace.rows else 0}",
            f"converged_at={trace.converged_at}",
            f"mse={trace.final_mse:.6g}" if trace.rows else "mse=nan"]
    if trace.diverged:
        bits.append("DIVERGED")
    if trace.oracle:
        bits.append(f"rho_K={trace.oracle['rho_K']:.6g}")
        bits.append(f"crlb_avg={trace.oracle['crlb_avg']:.6g}")
    return f"run {label}: " + " ".join(bits)


def _fail(code: int, kind: str, message: str) -> int:
    line = str(message).replace("\n", " ")
    print(f"error: code={code} kind={kind} reason={line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if (args.config is None) == (args.preset is None):
        return _fail(EXIT_VALIDATION, "validation",
                     "exactly one of --config or --preset is required")
    try:
        if args.preset:
            batch = preset_configs(args.preset, _overrides(args))
        else:
            import dataclasses
            cfg = load_config(args.config)
            cfg = dataclasses.replace(cfg, **_overrides(args))
            batch = [("run", cfg)]

        any_diverged = False
        for label, cfg in batch:
            trace = run_experiment(cfg)
            outdir = args.out if len(batch) == 1 else args.out / label
            _write_outputs(trace, cfg, outdir, args.emit)
            print(_describe(label, trace))
            any_diverged |= trace.diverged
    except (ConfigError, UnobservableError) as exc:
        return _fail(EXIT_VALIDATION, "validation", exc)
    except ArithmeticError as exc:    # NumericError, and overflow in float arithmetic
        return _fail(EXIT_NUMERIC, "numeric", exc)
    except OSError as exc:
        return _fail(EXIT_VALIDATION, "io", exc)
    return EXIT_DIVERGED if any_diverged else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
