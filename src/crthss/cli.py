"""Command-line front end: gen-params, deal, reconstruct, audit, inspect.

Exit codes are stable:
  0 success
  2 flag/validation failure (including a secret out of range, a
    malformed share, or shares that disagree with each other)
  3 invalid parameter set at deal time, or a multi-level "ab" file in audit
  4 reconstruction refused: no qualifying level (failing levels are named)
  5 parameter digest mismatch between shares and bundle
  6 missing published value
  7 audit adversary set is actually authorized
  8 enumeration work budget exceeded

No error path prints a secret. The parameter file names the scheme (only
gen-params takes --scheme), and --seed alone makes a run reproducible: without
it every draw comes from the operating system's CSPRNG and no seed is printed.

The parser is built once, when this module is imported, and ``main(argv)``
may be called any number of times in one process. It looks up the command's
``cmd_*`` function by name on every call, so a function replaced after import
is the one that runs.
"""

import argparse
import json
import math
import os
import random
import stat
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis
from .asmuth_bloom import ab_reconstruct
from .chss import chss_deal, chss_reconstruct
from .dhss import _dealer_rng, dhss_deal, dhss_reconstruct
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
    check_power_limit,
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
    """A comma-separated integer list; anything else is a usage error."""
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _theta_arg(text: str) -> Fraction:
    """--theta as an exact fraction; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction p/q: {text!r}") from None


def _epsilon_arg(text: str) -> float:
    """--epsilon as a finite, non-negative float; NaN and infinities would
    end up in the report, which must stay valid JSON."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(
            f"not a finite non-negative number: {text!r}"
        )
    return value


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path, text: str, private: bool = False) -> None:
    """Write text as UTF-8 over whatever the path holds, in place.

    The file is opened without O_TRUNC and cut to the new length after the
    write: truncating a non-empty file to zero makes ext4 (with its default
    auto_da_alloc), xfs and btrfs start writeback when the file is closed,
    which costs more than the write. Nothing is fsynced. If a write fails
    partway the file is left empty, never a mix of old and new bytes. A
    private file (one holding share values or dealer randomness) is created
    0o600, and an existing one is set to 0o600. A path that is not a regular
    file, such as /dev/null or a pipe, is only written to.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600 if private else 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        if private and regular:
            os.fchmod(fd, 0o600)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, len(data))
        except OSError:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def _cannot_write(path, exc: OSError) -> int:
    return _fail(EXIT_VALIDATION, f"cannot write {path}: {exc.strerror or exc}")


def _load_params(path: str) -> tuple[str, SchemeParams] | int:
    """The scheme and parameters a parameter file names, for deal and audit,
    or the exit code after refusing it: 2 for an unreadable file, 3 for a flat
    ("ab") file with more than one level, which no flat deal can serve."""
    try:
        scheme, params = parse_param_file(_load_json(path))
    except _FILE_ERRORS as exc:
        return _fail(EXIT_VALIDATION, f"cannot read parameters: {exc}")
    if scheme == "ab" and params.hierarchy.m != 1:
        return _fail(
            EXIT_INVALID_PARAMS, "flat dealing needs a single-level parameter set"
        )
    return scheme, params


# the largest --m0-bits: the prime search runs a pure-Python BPSW test on
# each candidate, which takes seconds at 2048 bits and grows with about the
# cube of the size
MAX_M0_BITS = 2048


def _random_prime(bits: int, rng: random.Random) -> int:
    if bits < 2:
        raise ValueError("need at least 2 bits")
    if bits > MAX_M0_BITS:
        raise ValueError(f"--m0-bits {bits} is above the limit of {MAX_M0_BITS}")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


# -- gen-params ---------------------------------------------------------------

def cmd_gen_params(args) -> int:
    try:
        hierarchy = Hierarchy(level_sizes=args.levels, thresholds=args.thresholds)
        if args.scheme == "ab" and hierarchy.m != 1:
            return _fail(EXIT_VALIDATION, "flat parameters need a single level")
        rng = _dealer_rng(args.seed)
        # generate_compact_sequence rejects a composite --m0
        m0 = args.m0
        if m0 is None:
            check_power_limit(args.m0_bits, args.theta)
            m0 = _random_prime(args.m0_bits, rng)
        sequence = generate_compact_sequence(
            m0, hierarchy.n, args.k, args.theta, rng.randrange(2 ** 63)
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
    try:
        _write_text(out, canonical_dumps(param_file_obj(args.scheme, params)))
    except OSError as exc:
        return _cannot_write(out, exc)
    rate = analysis.information_rate(params)
    print(f"wrote {out}")
    if args.seed is not None:
        print(f"seed: {args.seed} (explicit)")
    print(f"m0 = {m0}, moduli = {list(sequence.moduli)}")
    for level, t in enumerate(hierarchy.thresholds, start=1):
        print(f"Asmuth-Bloom inequality holds at level {level} (t={t})")
    print(f"information rate rho = {rate.rho:.6f}")
    if rate.compact_lower_bound is not None:
        print(f"1-compact analytic floor = {rate.compact_lower_bound:.6f}")
    return 0


# -- deal ----------------------------------------------------------------------

def cmd_deal(args) -> int:
    loaded = _load_params(args.params)
    if isinstance(loaded, int):
        return loaded
    scheme, params = loaded
    deal = chss_deal if scheme == "chss" else dhss_deal
    try:
        result = deal(args.secret, params, args.seed, keep_dealer_secrets=True)
    except SecretOutOfRange as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except InvalidParams as exc:
        return _fail(EXIT_INVALID_PARAMS, str(exc))
    out_dir = Path(args.out_dir)
    digest = params_digest(scheme, params)
    files = {
        f"share_{share.participant:03d}.json": share_file_obj(scheme, share, digest)
        for share in result.shares
    }
    files["public_bundle.json"] = bundle_file_obj(scheme, result.public)
    if args.emit_dealer_secrets:
        files["dealer_secrets.json"] = {
            "WARNING": "dealer secrets; test use only, never publish",
            "scheme": scheme,
            "params_digest": digest,
            "seed": None if args.seed is None else str(args.seed),
            "values": {
                key: [str(v) for v in vals]
                for key, vals in (result.dealer_secrets or {}).items()
            },
        }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, obj in files.items():
            # share files and dealer secrets are private; the bundle is public
            _write_text(
                out_dir / name, canonical_dumps(obj),
                private=name != "public_bundle.json",
            )
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    print(f"wrote {len(result.shares)} share files and public_bundle.json to {out_dir}")
    if args.seed is not None:
        print(f"seed: {args.seed} (explicit)")
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
    # looked up per call, not at import, so a patched entry point is the one run
    reconstruct = {
        "dhss": dhss_reconstruct, "chss": chss_reconstruct, "ab": ab_reconstruct,
    }[scheme]
    try:
        print(reconstruct(shares, public))
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
    label: str,
    params: SchemeParams,
    adversary: tuple[int, ...],
    secret: int,
    deal_seed: int,
    budget: int,
    epsilon: float,
) -> dict:
    """Deal, build the adversary view, and measure the posterior; the eta and
    ratio tables render the report's level profiles. A flat ("ab") file is
    counted as the single-level disjunctive scheme, but reported under its
    own label and digest."""
    scheme = "chss" if label == "chss" else "dhss"
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
        "scheme": label,
        "params_digest": params_digest(label, params),
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
    loaded = _load_params(args.params)
    if isinstance(loaded, int):
        return loaded
    label, params = loaded
    rng = _dealer_rng(args.seed)
    try:
        if args.ladder:
            rungs = []
            shape = params.hierarchy
            for m0 in args.ladder:
                sequence = generate_compact_sequence(
                    m0, shape.n, params.sequence.k, params.sequence.theta,
                    rng.randrange(2 ** 63),
                )
                rung_params = SchemeParams(
                    sequence=sequence, hierarchy=shape, owf=params.owf
                )
                secret = args.secret if args.secret is not None else rng.randrange(m0)
                entry = _audit_one(
                    label, rung_params, args.adversary, secret,
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
                label, params, args.adversary, secret,
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
        try:
            _write_text(args.out, text)
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if args.seed is not None:
        print(f"seed: {args.seed} (explicit)", file=sys.stderr)
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
    """The whole command tree. It holds no function objects, so it can be
    built once and shared by every call of ``main``."""
    parser = argparse.ArgumentParser(
        prog="crthss",
        description="CRT-based hierarchical secret sharing and audit tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-params", help="generate and validate a parameter file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m0", type=int, help="prime secret-space modulus")
    group.add_argument("--m0-bits", type=int,
                       help=f"draw a random prime of this size, at most {MAX_M0_BITS} bits")
    p.add_argument("--levels", type=_ints_arg, required=True,
                   help="per-level sizes, e.g. 1,2")
    p.add_argument("--thresholds", type=_ints_arg, required=True,
                   help="per-level thresholds, e.g. 1,2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--theta", type=_theta_arg, default="1/2",
                   help="compactness exponent p/q")
    p.add_argument("--owf", choices=KINDS, default="hash_based")
    p.add_argument("--family-tag", default="", help="hex domain-separation tag")
    p.add_argument("--digest", default="sha256")
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", choices=("dhss", "chss", "ab"), default="dhss")
    p.add_argument("--out", required=True)

    p = sub.add_parser("deal", help="split a secret into share files")
    p.add_argument("--params", required=True)
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--emit-dealer-secrets", action="store_true",
        help="also write dealer_secrets.json (test use only)",
    )

    p = sub.add_parser("reconstruct", help="recover the secret from share files")
    p.add_argument("--public", required=True)
    p.add_argument("--shares", nargs="+", required=True)

    p = sub.add_parser("audit", help="measure what an unauthorized set learns")
    p.add_argument("--params", required=True)
    p.add_argument("--adversary", type=_ints_arg, required=True,
                   help="participant indices, e.g. 2,3")
    p.add_argument("--ladder", type=_ints_arg,
                   help="regenerate the same shape at these m0 rungs")
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_WORK_BUDGET)
    p.add_argument("--epsilon", type=_epsilon_arg, default=analysis.DEFAULT_EPSILON)
    p.add_argument("--secret", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("inspect", help="pretty-print any file of this tool")
    p.add_argument("file")

    return parser


# built at import: the one-time cost is paid there, not by every command
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    return globals()["cmd_" + args.command.replace("-", "_")](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
