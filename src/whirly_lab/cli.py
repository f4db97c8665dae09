"""Command-line surface.

Every command takes its seed from ``--seed`` alone, the acceptance seed by
default, and derives all randomness from that seed through named streams.
Standard output carries the result as one JSON document, byte-deterministic
for a fixed command line; progress and timing notes go to standard error.
Reports leave through :func:`~whirly_lab.experiments.report_json`, which
refuses NaN and the infinities, and a verdict line follows the body it
judges, so a body that cannot be written exits 2 with no verdict.
Each experiment command calls its function with options named after the
function's parameters.  ``sample`` writes its levels as it formats them, so
its only depth limit is the sampler budget.

Exit codes: 0 on success (and on verifications that pass), 1 when a
verification or the acceptance suite fails, 2 on usage errors and on inputs
or reports that are refused.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .acceptance import ACCEPTANCE_SEED, CRITERIA
from .experiments import (
    positivity_scan,
    report_json,
    sharpness_check,
    verify_action_identity,
    verify_conditional_independence,
    verify_continuity,
    verify_convolution,
    verify_marginals,
    whirly_search,
)
from .montecarlo import estimate_measure
from .rng import RngStream
from .sets import BorelSet, disk_product, set_from_json
from .tree import sample_levels

# ``sample`` formats and writes this many floats at a time (an even count, so
# no ``[re, im]`` pair is split), so its print holds one chunk beside the tree.
_SAMPLE_CHUNK_FLOATS = 1 << 16
_SAMPLE_PAIR = "      [\n        {!r},\n        {!r}\n      ]"


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    """Parse a finite number; NaN and the infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_complex(text: str) -> complex:
    """Parse ``X`` or ``X,Y`` as a complex number with finite parts."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(finite_float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(finite_float(parts[0]), finite_float(parts[1]))
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"expected X or X,Y with finite numeric parts, got {text!r}")


def parse_set_spec(text: str) -> BorelSet:
    """Build a set from a shorthand, an inline JSON object, or a JSON file.

    Shorthand: ``disk:levelN:rR`` optionally followed by ``:cX,Y``, meaning
    the product of equal disks of radius ``R`` (centered at ``X+Yi``) over all
    level-``N`` coordinates.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            return set_from_json(json.loads(text))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"bad inline set JSON: {exc}")
    if text.startswith("disk:"):
        parts = text.split(":")
        try:
            if len(parts) not in (3, 4) or not parts[1].startswith("level"):
                raise ValueError("expected disk:levelN:rR[:cX,Y]")
            level = int(parts[1][len("level"):])
            if not parts[2].startswith("r"):
                raise ValueError("expected radius as rR")
            radius = float(parts[2][1:])
            center = 0j
            if len(parts) == 4:
                if not parts[3].startswith("c"):
                    raise ValueError("expected center as cX,Y")
                center = parse_complex(parts[3][1:])
            return disk_product(level, center, radius)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(f"bad disk shorthand {text!r}: {exc}")
    try:
        with open(text, "r", encoding="utf-8") as handle:
            return set_from_json(json.load(handle))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read set file {text!r}: {exc}")
    except (json.JSONDecodeError, ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad set file {text!r}: {exc}")


def _stream(args: argparse.Namespace) -> RngStream:
    return RngStream(args.seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, workers: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED, help="master seed (default: %(default)s)")
    if workers:
        parser.add_argument("--workers", type=int, default=1, help="worker threads (results are identical for any count)")


def cmd_sample(args: argparse.Namespace) -> int:
    """Print one tree as ``report_json`` would print ``{"depth", "levels",
    "seed"}`` with each level a list of ``[re, im]`` pairs, a chunk at a time."""
    levels = sample_levels(args.depth, 1, _stream(args).generator())
    out = sys.stdout
    out.write(f'{{\n  "depth": {args.depth},\n  "levels": [\n')
    for n, level in enumerate(levels):
        values = level[0].view(np.float64)
        out.write(",\n    [\n" if n else "    [\n")
        for start in range(0, values.size, _SAMPLE_CHUNK_FLOATS):
            chunk = values[start:start + _SAMPLE_CHUNK_FLOATS].tolist()
            out.write((",\n" if start else "") + ",\n".join(map(_SAMPLE_PAIR.format, chunk[0::2], chunk[1::2])))
        out.write("\n    ]")
    out.write(f'\n  ],\n  "seed": {args.seed}\n}}\n')
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    est = estimate_measure(
        args.set, args.set.level, args.samples, _stream(args), workers=args.workers, confidence=args.confidence
    )
    print(report_json(est.json_dict()))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    options = {k: v for k, v in vars(args).items() if k not in ("command", "run", "experiment", "seed")}
    report = args.experiment(rng=_stream(args), **options)
    body = report.json_dict()
    text = report_json(body)
    verdict = "PASS" if body["pass"] else "FAIL"
    print(f"{verdict} {report.name} ({report.runtime_ms} ms)", file=sys.stderr)
    print(text)
    return 0 if body["pass"] else 1


def cmd_suite(args: argparse.Namespace) -> int:
    if args.list:
        for criterion in CRITERIA:
            print(f"{criterion.key}: {criterion.title}")
        return 0
    scale = 0.1 if args.quick else 1.0
    chosen = CRITERIA
    if args.criteria:
        wanted = set(args.criteria.split(","))
        unknown = wanted - {c.key for c in CRITERIA}
        if unknown:
            print(f"unknown criteria: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        chosen = tuple(c for c in CRITERIA if c.key in wanted)
    results = []
    for criterion in chosen:
        report = criterion.run(seed=args.seed, workers=args.workers, scale=scale)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{verdict} {criterion.key}: {criterion.title} ({report.runtime_ms} ms)", file=sys.stderr)
        results.append((criterion, report))
    all_passed = all(r.passed for _, r in results)
    payload = {
        "seed": args.seed,
        "scale": scale,
        "pass": all_passed,
        "criteria": {c.key: r.json_dict() for c, r in results},
    }
    print(report_json(payload))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _default_disk() -> BorelSet:
    return disk_product(0, 0j, 1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whirly-lab",
        description="Sample dyadic Gaussian trees, estimate cylinder-set measures, and run the verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one tree and print its levels")
    p.add_argument("--depth", type=int, default=4, help="tree depth")
    _add_common(p)
    p.set_defaults(run=cmd_sample)

    p = sub.add_parser("estimate", help="estimate the measure of a set")
    p.add_argument("--set", type=parse_set_spec, required=True, help="disk:levelN:rR[:cX,Y], inline JSON, or a JSON file")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--confidence", type=finite_float, default=0.95)
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_estimate)

    p = sub.add_parser("verify-marginals", help="check level and innovation marginals")
    p.add_argument("--level", dest="n", metavar="LEVEL", type=int, default=3)
    p.add_argument("--samples", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(run=cmd_report, experiment=verify_marginals)

    p = sub.add_parser("verify-action-identity", help="check the exact whirling action identity")
    p.add_argument("--level", dest="n", metavar="LEVEL", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--s", type=finite_float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    _add_common(p)
    p.set_defaults(run=cmd_report, experiment=verify_action_identity)

    p = sub.add_parser("verify-continuity", help="check measure continuity of the action")
    p.add_argument("--radius", type=finite_float, default=1.0)
    p.add_argument("--center", type=parse_complex, default=0j)
    p.add_argument("--epsilon", type=finite_float, default=0.1)
    p.add_argument("--level", dest="n", metavar="LEVEL", type=int, default=6)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--pairs", type=int, default=20)
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_report, experiment=verify_continuity)

    p = sub.add_parser("verify-convolve", help="check the translated-set averaging identity")
    p.add_argument("--set", dest="target", metavar="SET", type=parse_set_spec, default=_default_disk())
    p.add_argument("--a", type=finite_float, default=1.0)
    p.add_argument("--samples", type=int, default=1_000_000)
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_report, experiment=verify_convolution)

    p = sub.add_parser("verify-independence", help="check conditional independence of whirled events")
    p.add_argument("--set", dest="target", metavar="SET", type=parse_set_spec, default=_default_disk())
    p.add_argument("--s", type=finite_float, default=1.0)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", type=int, default=100_000)
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_report, experiment=verify_conditional_independence)

    p = sub.add_parser("positivity-scan", help="scan translated measures for positivity")
    p.add_argument("--set", dest="target", metavar="SET", type=parse_set_spec, default=_default_disk())
    p.add_argument("--a", type=finite_float, default=-2.0)
    p.add_argument("--z-samples", type=int, default=200)
    p.add_argument("--inner-samples", type=int, default=10_000)
    _add_common(p)
    p.set_defaults(run=cmd_report, experiment=positivity_scan)

    p = sub.add_parser("whirly-search", help="search for whirling elements that inflate a set")
    p.add_argument("--set", dest="target", metavar="SET", type=parse_set_spec, default=_default_disk())
    p.add_argument("--epsilon", type=finite_float, default=0.5)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--z-samples", type=int, default=200)
    p.add_argument(
        "--inner-samples",
        type=int,
        default=10_000,
        help="level vectors per scanned z in the constants phase, and the least size of the base "
        "estimate; a disk-product set's translated measures are exact, so for it only the base estimate",
    )
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_report, experiment=whirly_search)

    p = sub.add_parser("sharpness", help="check concentration of the scaling statistic")
    p.add_argument("--a", type=finite_float, default=2.0)
    p.add_argument("--b", type=finite_float, default=1.0)
    p.add_argument("--dims", type=int, default=10_000)
    p.add_argument("--samples", type=int, default=200)
    _add_common(p)
    p.set_defaults(run=cmd_report, experiment=sharpness_check)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="run at scale 0.1")
    p.add_argument("--criteria", type=str, default=None, help="comma-separated criterion keys")
    p.add_argument("--list", action="store_true", help="list criteria and exit")
    _add_common(p, workers=True)
    p.set_defaults(run=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
