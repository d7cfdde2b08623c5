"""Command-line surface.

Subcommands: run, certify, lowerbound, oracle, concentration.
Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import HicalibError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hicalib",
        description="High-dimensional online calibration lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a seeded run and persist it")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--allow-large", action="store_true",
                       help="opt into horizons beyond the default day budget")

    p_cert = sub.add_parser("certify", help="verify the proof certificate of a run")
    p_cert.add_argument("--run", required=True, help="run directory")

    p_low = sub.add_parser("lowerbound", help="Monte Carlo hard-sequence lower bound")
    p_low.add_argument("--R", required=True, type=int)
    p_low.add_argument("--K", required=True, type=int)
    p_low.add_argument("--forecaster", required=True,
                       choices=["truthful", "uniform", "hierarchical"])
    p_low.add_argument("--trials", required=True, type=int)
    p_low.add_argument("--seed", required=True, type=int)
    p_low.add_argument("--m", type=int, default=1,
                       help="smoothing mass for the hierarchical forecaster")

    p_or = sub.add_parser("oracle", help="randomized metric/oracle equivalence checks")
    p_or.add_argument("--trials", type=int, default=200)
    p_or.add_argument("--max-T", type=int, default=16, dest="max_T")
    p_or.add_argument("--max-d", type=int, default=4, dest="max_d")
    p_or.add_argument("--seed", required=True, type=int)

    p_conc = sub.add_parser("concentration", help="sampled-vs-mixture gap statistics")
    p_conc.add_argument("--config", required=True)
    p_conc.add_argument("--trials", required=True, type=int)
    p_conc.add_argument("--seed", required=True, type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = harness.cmd_run(args.config, args.seed, args.out,
                                  allow_large=args.allow_large)
            print(f"run {out.run_id}: {out.T} days written to {out.transcript_path}")
            print(f"dce = {out.dce!r}" + ("" if out.ece is None else f", ece = {out.ece!r}"))
            return 0
        if args.command == "certify":
            report, code = harness.cmd_certify(args.run)
            for row in report.checks:
                status = "pass" if row.passed else "FAIL"
                print(f"{status} {row.name} [{row.scope}] measured={row.measured!r} "
                      f"bound={row.bound!r} margin={row.margin!r}")
            chain = report.chain
            print(f"chain: A0={chain['A0']!r} A1={chain['A1']!r} "
                  f"A2={chain['A2']!r} A3={chain['A3']!r} K_bar={chain['K_bar']!r}")
            print(("PASS" if code == 0 else "FAIL") + f" run {report.run_id}")
            return code
        if args.command == "lowerbound":
            rep = harness.cmd_lowerbound(args.R, args.K, args.forecaster,
                                         args.trials, args.seed, m=args.m)
            print(f"lowerbound R={rep.R} K={rep.K} forecaster={rep.forecaster} "
                  f"trials={rep.trials}")
            print(f"mean dce = {rep.mean_dce!r} stderr = {rep.stderr!r} "
                  f"eps1*T = {rep.eps1_T!r}")
            print("PASS" if rep.passed else "FAIL")
            return 0 if rep.passed else 1
        if args.command == "oracle":
            rep = harness.cmd_oracle(args.trials, args.max_T, args.max_d, args.seed)
            print(f"dce vs oracle: {rep.dce_cases - rep.dce_failures}/{rep.dce_cases} "
                  f"(max diff {rep.max_dce_diff!r})")
            print(f"ece vs exhaustive: {rep.ece_cases - rep.ece_failures}/{rep.ece_cases}")
            print("PASS" if rep.passed else "FAIL")
            return 0 if rep.passed else 1
        if args.command == "concentration":
            rep = harness.cmd_concentration(args.config, args.trials, args.seed)
            for arm in (rep.low, rep.high):
                print(f"S={arm.S} T={arm.T} mean gap/day = {arm.mean_gap_per_day!r} "
                      f"stderr = {arm.stderr!r}")
            print(f"decreasing at 3 sigma: {rep.decreasing_pass}; "
                  f"gap budget {rep.bound!r}: {rep.bound_pass}")
            print("PASS" if rep.passed else "FAIL")
            return 0 if rep.passed else 1
    except HicalibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
