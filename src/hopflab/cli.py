"""Command line interface.

Subcommands: verify (invariant suite), energy (estimate one map's
seminorm), hopf (certify a Hopf invariant against bookkeeping), scaling
(the energy-vs-degree experiment). Exit codes: 0 all checks pass / run
complete, 1 check failure or runtime error, 2 usage error. The only
environment hook is HOPFLAB_CONFIG, which points at a JSON file of
defaults; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .energy import EnergyParams, energy_mc, whole_sphere
from .errors import HopflabError
from .experiments import (
    ExperimentConfig,
    parse_degrees,
    run_scaling,
    run_verify,
)
from .maps import map_from_descriptor
from .topology import hopf_invariant


def _load_config() -> dict:
    path = os.environ.get("HOPFLAB_CONFIG")
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _load_map(path: str):
    with open(path) as fh:
        return map_from_descriptor(json.load(fh))


def cmd_verify(args) -> int:
    cfg = _load_config().get("verify", {})
    if args.checks is None:
        checks = cfg.get("checks")
    elif args.checks.strip() == "":
        checks = []
    else:
        checks = [c.strip() for c in args.checks.split(",")]
    report = run_verify(checks, cfg.get("overrides"))
    table = report.to_table()
    if table:
        print(table)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_energy(args) -> int:
    cfg = _load_config().get("energy", {})
    u = _load_map(args.descriptor)
    n_dim = u.domain_dim
    p = args.p if args.p is not None else 3.0 / args.s
    params = EnergyParams(
        s=args.s, p=p, n=n_dim,
        critical=abs(args.s * p - n_dim) < 1e-12,
    )
    samples = args.samples if args.samples is not None else cfg.get(
        "samples", 200_000)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    est = energy_mc(u, params, whole_sphere(n_dim), int(samples), int(seed))
    print(est.to_json())
    return 0


def cmd_hopf(args) -> int:
    cfg = _load_config().get("hopf", {})
    u = _load_map(args.descriptor)
    step = args.step if args.step is not None else cfg.get("step", 2e-3)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    rep = hopf_invariant(u, step=float(step), seed=int(seed))
    agree = rep.value == u.degree
    print(json.dumps(
        {"hopf_invariant": rep.value, "raw": rep.raw,
         "residual": rep.residual, "bookkept": u.degree, "agree": agree},
        sort_keys=True,
    ))
    return 0 if agree else 1


def cmd_scaling(args) -> int:
    cfg = _load_config().get("scaling", {})
    degrees = parse_degrees(args.degrees if args.degrees is not None
                            else cfg.get("degrees", "kmax:5"))
    config = ExperimentConfig(
        s=args.s,
        degrees=degrees,
        samples_per_estimate=int(args.samples if args.samples is not None
                                 else cfg.get("samples", 1_000_000)),
        seed=int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        output_path=args.out,
        format=args.format,
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
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(func=cmd_energy)

    q = sub.add_parser("hopf", help="Hopf invariant by fiber linking")
    q.add_argument("--descriptor", required=True,
                   help="JSON map descriptor file")
    q.add_argument("--step", type=float, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(func=cmd_hopf)

    q = sub.add_parser("scaling", help="energy-vs-degree scaling experiment")
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--degrees", default=None,
                   help='"1,4,9" or "kmax:N" (default kmax:5)')
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", required=True, help="artifact path")
    q.add_argument("--format", choices=("csv", "json"), default="csv")
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
