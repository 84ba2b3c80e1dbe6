"""Command-line front end: gen-params, deal, reconstruct, audit, inspect.

Exit codes are stable:
  0 success
  2 flag/validation failure (including a secret out of range, a
    malformed share, or shares that disagree with each other)
  3 invalid parameter set at deal time
  4 reconstruction refused: no qualifying level (failing levels are named)
  5 parameter digest mismatch between shares and bundle
  6 missing published value
  7 audit adversary set is actually authorized
  8 enumeration work budget exceeded

No error path prints a secret. Without an explicit --seed the dealer draws
one from the platform entropy source and prints only its SHA-256 commitment.
"""

import argparse
import hashlib
import json
import random
import secrets as _secrets
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis
from .asmuth_bloom import ab_reconstruct
from .chss import chss_deal, chss_reconstruct
from .dhss import dedupe_shares, dhss_deal, dhss_reconstruct
from .errors import (
    Error,
    IntervalExhausted,
    IntractableInstance,
    InvalidParams,
    MissingPublicValue,
    NotAuthorized,
    NotUnauthorized,
    SecretOutOfRange,
)
from .fileformat import (
    bundle_file_obj,
    canonical_dumps,
    param_file_obj,
    params_digest,
    parse_bundle_file,
    parse_param_file,
    parse_share_file,
    share_file_obj,
)
from .oneway import KINDS, OwfFamily
from .params import (
    Hierarchy,
    SchemeParams,
    generate_compact_sequence,
    is_prime,
    validate_params,
)

EXIT_VALIDATION = 2
EXIT_INVALID_PARAMS = 3
EXIT_NOT_AUTHORIZED = 4
EXIT_DIGEST_MISMATCH = 5
EXIT_MISSING_PUBLIC = 6
EXIT_AUTHORIZED_ADVERSARY = 7
EXIT_BUDGET = 8

# what a malformed or mistyped file raises while it is read and parsed
_FILE_ERRORS = (OSError, ValueError, KeyError, TypeError, ArithmeticError)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _ints_arg(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_canonical(path: Path, obj) -> None:
    path.write_text(canonical_dumps(obj), encoding="utf-8")


def _resolve_seed(seed: int | None) -> tuple[int, str]:
    """Explicit seed, or a fresh one from platform entropy. Returns the seed
    and a printable note (the commitment when the seed was drawn here)."""
    if seed is not None:
        return seed, f"seed: {seed} (explicit)"
    drawn = _secrets.randbits(64)
    digest = hashlib.sha256(drawn.to_bytes(8, "big")).hexdigest()
    return drawn, f"seed commitment: {digest}"


def _random_prime(bits: int, rng: random.Random) -> int:
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


# -- gen-params ---------------------------------------------------------------

def cmd_gen_params(args) -> int:
    try:
        levels = _ints_arg(args.levels)
        thresholds = _ints_arg(args.thresholds)
        theta = Fraction(args.theta)
        seed, seed_note = _resolve_seed(args.seed)
        rng = random.Random(seed)
        # generate_compact_sequence rejects a composite --m0
        m0 = args.m0 if args.m0 is not None else _random_prime(args.m0_bits, rng)
        hierarchy = Hierarchy(level_sizes=levels, thresholds=thresholds)
        sequence = generate_compact_sequence(
            m0, hierarchy.n, args.k, theta, rng.randrange(2 ** 63)
        )
        owf = OwfFamily(
            kind=args.owf,
            family_tag=bytes.fromhex(args.family_tag),
            digest_name=args.digest,
        )
        params = SchemeParams(sequence=sequence, hierarchy=hierarchy, owf=owf)
        report = validate_params(params)
        if not report.ok:
            return _fail(EXIT_VALIDATION, str(report))
    except (IntervalExhausted, ValueError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    out = Path(args.out)
    _write_canonical(out, param_file_obj(args.scheme, params))
    rate = analysis.information_rate(params)
    print(f"wrote {out}")
    print(seed_note)
    print(f"m0 = {m0}, moduli = {list(sequence.moduli)}")
    for level, t in enumerate(hierarchy.thresholds, start=1):
        print(f"Asmuth-Bloom inequality holds at level {level} (t={t})")
    print(f"information rate rho = {rate.rho:.6f}")
    if rate.compact_lower_bound is not None:
        print(f"1-compact analytic floor = {rate.compact_lower_bound:.6f}")
    return 0


# -- deal ----------------------------------------------------------------------

def cmd_deal(args) -> int:
    try:
        file_scheme, params = parse_param_file(_load_json(args.params))
    except _FILE_ERRORS as exc:
        return _fail(EXIT_VALIDATION, f"cannot read parameters: {exc}")
    scheme = args.scheme or file_scheme
    seed, seed_note = _resolve_seed(args.seed)
    if scheme == "ab" and params.hierarchy.m != 1:
        return _fail(
            EXIT_INVALID_PARAMS, "flat dealing needs a single-level parameter set"
        )
    deal = chss_deal if scheme == "chss" else dhss_deal
    try:
        result = deal(args.secret, params, seed, keep_dealer_secrets=True)
    except SecretOutOfRange as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except InvalidParams as exc:
        return _fail(EXIT_INVALID_PARAMS, str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = params_digest(scheme, params)
    for share in result.shares:
        _write_canonical(
            out_dir / f"share_{share.participant:03d}.json",
            share_file_obj(scheme, share, digest),
        )
    _write_canonical(
        out_dir / "public_bundle.json", bundle_file_obj(scheme, result.public)
    )
    if args.emit_dealer_secrets:
        secrets_obj = {
            "WARNING": "dealer secrets; test use only, never publish",
            "scheme": scheme,
            "params_digest": digest,
            "seed": str(seed),
            "values": {
                key: [str(v) for v in vals]
                for key, vals in (result.dealer_secrets or {}).items()
            },
        }
        _write_canonical(out_dir / "dealer_secrets.json", secrets_obj)
    print(f"wrote {len(result.shares)} share files and public_bundle.json to {out_dir}")
    print(seed_note)
    print(f"params digest: {digest}")
    return 0


# -- reconstruct -----------------------------------------------------------------

def cmd_reconstruct(args) -> int:
    try:
        scheme, public = parse_bundle_file(_load_json(args.public))
    except _FILE_ERRORS as exc:
        return _fail(EXIT_VALIDATION, f"cannot read bundle: {exc}")
    digest = params_digest(scheme, public.params)
    shares = []
    for path in args.shares:
        try:
            share_scheme, share, share_digest = parse_share_file(_load_json(path))
        except _FILE_ERRORS as exc:
            return _fail(EXIT_VALIDATION, f"cannot read share {path}: {exc}")
        if share_digest != digest or share_scheme != scheme:
            return _fail(
                EXIT_DIGEST_MISMATCH,
                f"share {path} does not belong to this bundle's parameters",
            )
        shares.append(share)
    try:
        if scheme == "dhss":
            secret = dhss_reconstruct(shares, public)
        elif scheme == "chss":
            secret = chss_reconstruct(shares, public)
        else:
            # the files' modulus and level pass the gate before the pairs
            # drop them
            gated = dedupe_shares(shares, public.params)
            secret = ab_reconstruct(
                [(s.participant, s.value) for s in gated],
                public.params.hierarchy.thresholds[0],
                public.params.sequence,
            )
        print(secret)
        return 0
    except NotAuthorized as exc:
        return _fail(
            EXIT_NOT_AUTHORIZED,
            f"not authorized; failing level(s): {list(exc.failing_levels)}",
        )
    except MissingPublicValue as exc:
        return _fail(EXIT_MISSING_PUBLIC, str(exc))
    except (Error, ValueError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))


# -- audit -----------------------------------------------------------------------

def _audit_one(
    scheme: str,
    params: SchemeParams,
    adversary: tuple[int, ...],
    secret: int,
    deal_seed: int,
    budget: int,
    epsilon: float,
) -> dict:
    """Deal, build the adversary view, and measure the posterior; the eta and
    ratio tables render the report's level profiles."""
    deal = chss_deal if scheme == "chss" else dhss_deal
    view = analysis.adversary_view(deal(secret, params, deal_seed), adversary)
    report = analysis.enumerate_posterior(
        view, scheme, epsilon_tolerance=epsilon, work_budget=budget
    )
    groups = report.groups()
    decomposition_ok = None
    if scheme == "dhss":
        analysis.count_grouping(report)
        decomposition_ok = True
    eta_table, ratio_table = [], []
    for level, p in enumerate(report.levels, start=1):
        eta_table.append({
            "level": level,
            "floor": str(p.floor),
            "range_bound": str(p.bound),
            "adversary_modulus": str(p.combined),
        })
        ratio, value = None, None
        if p.worst_case:
            ratio = f"{p.ratio.numerator}/{p.ratio.denominator}"
            value = float(p.ratio)
        ratio_table.append({"level": level, "ratio": ratio, "value": value})
    rate = analysis.information_rate(params)
    return {
        "scheme": scheme,
        "params_digest": params_digest(scheme, params),
        "adversary": sorted(view.members),
        "total_candidates": str(report.total),
        "groups": [
            {"candidates": str(y), "num_secrets": g}
            for y, g in sorted(groups.items())
        ],
        "gamma_total": sum(groups.values()),
        "decomposition_ok": decomposition_ok,
        "secret_entropy_bits": report.secret_entropy,
        "conditional_entropy_bits": report.conditional_entropy,
        "loss_bits": report.loss,
        "epsilon_tolerance": report.epsilon_tolerance,
        "eta_table": eta_table,
        "ratio_table": ratio_table,
        "rho": rate.rho,
    }


def cmd_audit(args) -> int:
    try:
        file_scheme, params = parse_param_file(_load_json(args.params))
    except _FILE_ERRORS as exc:
        return _fail(EXIT_VALIDATION, f"cannot read parameters: {exc}")
    scheme = args.scheme or file_scheme
    if scheme == "ab":
        scheme = "dhss"
    adversary = _ints_arg(args.adversary)
    seed, seed_note = _resolve_seed(args.seed)
    rng = random.Random(seed)
    try:
        if args.ladder:
            rungs = []
            shape = params.hierarchy
            for m0 in _ints_arg(args.ladder):
                sequence = generate_compact_sequence(
                    m0, shape.n, params.sequence.k, params.sequence.theta,
                    rng.randrange(2 ** 63),
                )
                rung_params = SchemeParams(
                    sequence=sequence, hierarchy=shape, owf=params.owf
                )
                secret = args.secret if args.secret is not None else rng.randrange(m0)
                entry = _audit_one(
                    scheme, rung_params, adversary, secret,
                    rng.randrange(2 ** 63), args.budget, args.epsilon,
                )
                entry["m0"] = str(m0)
                rungs.append(entry)
            deltas = [r["loss_bits"] for r in rungs]
            out_obj = {
                "ladder": rungs,
                "delta_trend": deltas,
                "strictly_decreasing": all(
                    a > b for a, b in zip(deltas, deltas[1:])
                ),
            }
        else:
            secret = args.secret
            if secret is None:
                secret = rng.randrange(params.sequence.m0)
            out_obj = _audit_one(
                scheme, params, adversary, secret,
                rng.randrange(2 ** 63), args.budget, args.epsilon,
            )
    except NotUnauthorized as exc:
        return _fail(EXIT_AUTHORIZED_ADVERSARY, str(exc))
    except IntractableInstance as exc:
        return _fail(EXIT_BUDGET, str(exc))
    except (Error, ValueError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    text = canonical_dumps(out_obj)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    print(seed_note, file=sys.stderr)
    return 0


# -- inspect ---------------------------------------------------------------------

def cmd_inspect(args) -> int:
    try:
        obj = _load_json(args.file)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_VALIDATION, f"cannot read {args.file}: {exc}")
    kind = "unknown"
    if isinstance(obj, dict):
        if {"sequence", "hierarchy"} <= obj.keys():
            kind = "parameter file"
        elif "params_digest" in obj and "value" in obj:
            kind = "share file"
        elif "w" in obj:
            kind = "public bundle"
        elif "loss_bits" in obj or "ladder" in obj:
            kind = "audit report"
    print(f"# {args.file}: {kind}")
    print(canonical_dumps(obj), end="")
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crthss",
        description="CRT-based hierarchical secret sharing and audit tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-params", help="generate and validate a parameter file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m0", type=int, help="prime secret-space modulus")
    group.add_argument("--m0-bits", type=int, help="draw a random prime of this size")
    p.add_argument("--levels", required=True, help="per-level sizes, e.g. 1,2")
    p.add_argument("--thresholds", required=True, help="per-level thresholds, e.g. 1,2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--theta", default="1/2", help="compactness exponent p/q")
    p.add_argument("--owf", choices=KINDS, default="hash_based")
    p.add_argument("--family-tag", default="", help="hex domain-separation tag")
    p.add_argument("--digest", default="sha256")
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", choices=("dhss", "chss", "ab"), default="dhss")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_params)

    p = sub.add_parser("deal", help="split a secret into share files")
    p.add_argument("--params", required=True)
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", choices=("dhss", "chss", "ab"))
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--emit-dealer-secrets", action="store_true",
        help="also write dealer_secrets.json (test use only)",
    )
    p.set_defaults(func=cmd_deal)

    p = sub.add_parser("reconstruct", help="recover the secret from share files")
    p.add_argument("--public", required=True)
    p.add_argument("--shares", nargs="+", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("audit", help="measure what an unauthorized set learns")
    p.add_argument("--params", required=True)
    p.add_argument("--scheme", choices=("dhss", "chss", "ab"))
    p.add_argument("--adversary", required=True, help="participant indices, e.g. 2,3")
    p.add_argument("--ladder", help="regenerate the same shape at these m0 rungs")
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_WORK_BUDGET)
    p.add_argument("--epsilon", type=float, default=analysis.DEFAULT_EPSILON)
    p.add_argument("--secret", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("inspect", help="pretty-print any file of this tool")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
