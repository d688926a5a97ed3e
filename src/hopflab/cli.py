"""Command line interface.

Subcommands: verify (invariant suite), energy (estimate one map's
seminorm), hopf (certify a Hopf invariant against bookkeeping), scaling
(the energy-vs-degree experiment). Exit codes: 0 all checks pass / run
complete, 1 check failure or runtime error, 2 usage error. Every run
setting comes from a flag or its default here.
"""

from __future__ import annotations

import argparse
import json
import sys

from .energy import EnergyParams, energy_mc, whole_sphere
from .errors import HopflabError, ParameterError
from .experiments import (
    ExperimentConfig,
    parse_degrees,
    run_scaling,
    run_verify,
)
from .maps import map_from_descriptor
from .topology import hopf_invariant


def _load_map(path: str):
    with open(path) as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ParameterError(f"descriptor file {path} is not JSON: {err}") from None
    return map_from_descriptor(desc)


def cmd_verify(args) -> int:
    checks = args.checks
    if checks is not None:  # absent: every check; "": none
        checks = [c.strip() for c in checks.split(",")] if checks.strip() else []
    report = run_verify(checks)
    table = report.to_table()
    if table:
        print(table)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_energy(args) -> int:
    u = _load_map(args.descriptor)
    n_dim = u.domain_dim
    if args.p is None and not 0.0 < args.s < 1.0:  # before the default p = 3/s
        raise ParameterError(f"s must lie in (0,1), got {args.s}")
    p = args.p if args.p is not None else 3.0 / args.s
    est = energy_mc(u, EnergyParams(s=args.s, p=p, n=n_dim),
                    whole_sphere(n_dim), args.samples, args.seed)
    print(est.to_json())
    return 0


def cmd_hopf(args) -> int:
    u = _load_map(args.descriptor)
    rep = hopf_invariant(u, step=args.step, seed=args.seed)
    agree = rep.value == u.degree
    print(json.dumps(
        {"hopf_invariant": rep.value, "raw": rep.raw,
         "residual": rep.residual, "bookkept": u.degree, "agree": agree},
        sort_keys=True,
    ))
    return 0 if agree else 1


def cmd_scaling(args) -> int:
    config = ExperimentConfig(
        s=args.s,
        degrees=parse_degrees(args.degrees),
        samples_per_estimate=args.samples,
        seed=args.seed,
        output_path=args.out,
    )
    result = run_scaling(config)
    slope = "undefined" if result.slope is None else f"{result.slope:.4f}"
    print(f"rows={len(result.rows)} slope={slope} "
          f"config_hash={config.config_hash()} partial={result.partial}")
    for msg in result.failures:
        print(f"failure: {msg}", file=sys.stderr)
    return 1 if result.partial else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflab",
        description="Sphere-map laboratory: energies, degrees, Hopf "
                    "invariants, and the energy-vs-degree scaling run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="run the invariant check suite")
    q.add_argument("--checks", default=None,
                   help="comma-separated check names (default: all; "
                        "empty string: none)")
    q.add_argument("--out", default=None, help="write the JSON report here")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("energy", help="estimate E_{s,p}(u, S^n) for one map")
    q.add_argument("--descriptor", required=True,
                   help="JSON map descriptor file")
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--p", type=float, default=None,
                   help="default: the critical 3/s")
    q.add_argument("--samples", type=int, default=200_000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_energy)

    q = sub.add_parser("hopf", help="Hopf invariant by fiber linking")
    q.add_argument("--descriptor", required=True,
                   help="JSON map descriptor file")
    q.add_argument("--step", type=float, default=2e-3,
                   help="initial fiber arc step, also the predictor tolerance "
                        "scale and the closing radius (default 2e-3, at least "
                        "1e-12); steps adapt up to 0.1 rad")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_hopf)

    q = sub.add_parser("scaling", help="energy-vs-degree scaling experiment")
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--degrees", default="kmax:5",
                   help='"1,4,9" or "kmax:N" (default kmax:5)')
    q.add_argument("--samples", type=int, default=1_000_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True,
                   help="CSV path; .meta.json and .loglog.csv go beside it")
    q.set_defaults(func=cmd_scaling)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HopflabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
