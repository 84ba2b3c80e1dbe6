"""Command-line front end: gen-params, deal, reconstruct, audit, inspect.

Exit codes are stable:
  0 success
  2 flag/validation failure (including a secret out of range, an empty
    --ladder, a malformed share, or shares that disagree with each other)
  3 invalid parameter set: a parameter file that fails validation, in deal
    and in audit, or a flat ("ab") file with more than one level
  4 reconstruction refused: no qualifying level (failing levels are named)
  5 parameter digest mismatch between shares and bundle
  6 missing published value
  7 audit adversary set is actually authorized
  8 enumeration work budget exceeded

No error path prints a secret. The parameter file names the scheme (only
gen-params takes --scheme), and --seed alone makes a run reproducible: without
it every draw comes from the operating system's CSPRNG and no seed is printed.
The scheme travels inside the parameters (``SchemeParams.scheme``): every
command deals with ``dhss.deal``, reconstructs with ``dhss.reconstruct`` and
audits with ``analysis.enumerate_posterior``, and none of them branches on
it. A flat file with more than one level is refused by the deal verdict.

The parser is built once, when this module is imported, and ``main(argv)``
may be called any number of times in one process. ``main`` hands the
arguments after a command's name to that command's own parser, which is what
the whole tree would do, in one argparse pass instead of two. Whatever that
parser cannot take alone (no command, an unknown one, an option before it,
or arguments the command leaves over) goes to the whole tree, so every
message and exit code is argparse's own. ``main`` looks up the
command's ``*_command`` function by name on every call, so a function replaced
after import is the one that runs. Library errors are not caught by the
commands: ``main`` maps each one to its exit code through one table,
``_EXIT_CODES``.
"""

import argparse
import dataclasses
import json
import os
import stat
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import analysis
from .dhss import _dealer_rng, deal, reconstruct
from .errors import (
    Error,
    IntractableInstance,
    InvalidParams,
    MissingPublicValue,
    NotAuthorized,
    NotUnauthorized,
    TooFewShares,
)
from .fileformat import (
    audit_report_text,
    bundle_file_text,
    canonical_dumps,
    lowercase_hex,
    param_file_text,
    params_digest,
    parse_bundle_file,
    parse_param_file,
    parse_share_file,
    share_file_text,
)
from .params import (
    SCHEMES,
    Hierarchy,
    SchemeParams,
    check_compactness,
    check_power_limit,
    generate_compact_sequence,
    random_prime,
    scheme_violations,
    validate_hierarchy,
)

EXIT_VALIDATION = 2
EXIT_INVALID_PARAMS = 3
EXIT_NOT_AUTHORIZED = 4
EXIT_DIGEST_MISMATCH = 5
EXIT_MISSING_PUBLIC = 6
EXIT_AUTHORIZED_ADVERSARY = 7
EXIT_BUDGET = 8

# the exit code of an error that leaves a command: the first class the error
# is an instance of decides, so a subclass comes before its base
_EXIT_CODES = (
    (InvalidParams, EXIT_INVALID_PARAMS),
    (TooFewShares, EXIT_VALIDATION),
    (NotAuthorized, EXIT_NOT_AUTHORIZED),
    (MissingPublicValue, EXIT_MISSING_PUBLIC),
    (NotUnauthorized, EXIT_AUTHORIZED_ADVERSARY),
    (IntractableInstance, EXIT_BUDGET),
    ((Error, ValueError), EXIT_VALIDATION),
)

# the tolerance every audit report carries for loss_bits; the audit never reads it
DEFAULT_EPSILON = 0.05

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


def _ladder_arg(text: str) -> tuple[int, ...]:
    """--ladder as a non-empty integer list: an empty one would run no rung."""
    if not (rungs := _ints_arg(text)):
        raise argparse.ArgumentTypeError(f"no m0 rung in {text!r}")
    return rungs


def _theta_arg(text: str) -> Fraction:
    """--theta as an exact fraction; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction p/q: {text!r}") from None


def _family_tag_arg(text: str) -> bytes:
    """--family-tag in the one spelling a parameter file accepts."""
    if (tag := lowercase_hex(text)) is None:
        raise argparse.ArgumentTypeError(f"not lowercase hex of whole bytes: {text!r}")
    return tag


# the most one os.read asks for: a share file or an n = 200 bundle is read
# in one call, and no fstat is needed to size it
_READ_CHUNK = 1 << 16


def _read_each(paths, parse, what: str):
    """Yield ``parse`` applied to the JSON file at each of ``paths``, in
    turn; a file that cannot be read or parsed raises ValueError("cannot
    read <what>: <reason>"), ``what.format(path)`` naming it, so no message
    is built for a file that is read. The caller takes the files one by
    one: a check it makes between two files comes before the second is read.

    The bytes are read with ``os.open`` and ``os.read`` until a read comes
    back empty, and decoded as strict UTF-8 before ``json.loads`` sees them:
    a file object costs more per small file than the reads themselves, and
    bytes handed to ``json.loads`` would be sniffed for UTF-16 and UTF-32,
    which are refused. ``os.open`` opens a directory, and ``os.read`` then
    fails without naming it, so a read error is raised again with the path,
    as ``open`` words it. Invalid UTF-8 raises UnicodeDecodeError, a
    ValueError. The decoder recurses once per nesting level, so a file
    nested past the interpreter's recursion limit is refused like any other
    malformed file."""
    for path in paths:
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
            finally:
                os.close(fd)
            text = b"".join(chunks).decode("utf-8")
            try:
                obj = json.loads(text)
            except RecursionError:
                raise ValueError("the file nests too deeply") from None
            parsed = parse(obj)
        except _FILE_ERRORS as exc:
            raise ValueError(f"cannot read {what.format(path)}: {exc}") from None
        yield parsed


def _read(path, parse, what: str):
    """The one file at ``path``, read and parsed as ``_read_each`` does."""
    return next(_read_each((path,), parse, what))


def _write_text(path, text: str, private: bool = False) -> None:
    """Write text as UTF-8 over whatever the path holds, in place.

    The file is opened without O_TRUNC and cut to the new length after the
    write: truncating a non-empty file to zero makes ext4 (with its default
    auto_da_alloc), xfs and btrfs start writeback when the file is closed,
    which costs more than the write. The one fstat after opening decides
    the rest: the file is cut only when it held more bytes than the new
    data, and a private file (one holding share values or dealer
    randomness), created 0o600, is chmod-ed to 0o600 only when its mode
    differs. Nothing is fsynced. If a write fails partway the file is left
    empty, never a mix of old and new bytes. A path that is not a regular
    file, such as /dev/null or a pipe, is only written to.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600 if private else 0o666)
    try:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        if private and regular and stat.S_IMODE(st.st_mode) != 0o600:
            os.fchmod(fd, 0o600)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        except OSError:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def _cannot_write(path, exc: OSError) -> int:
    return _fail(EXIT_VALIDATION, f"cannot write {path}: {exc.strerror or exc}")


# the largest --m0-bits: the prime search runs a pure-Python BPSW test on
# each candidate that a sieve gcd leaves, which takes about 1.5 to 5 s at
# 2048 bits on a 2-vCPU VM and grows with about the cube of the size
MAX_M0_BITS = 2048


# -- gen-params ---------------------------------------------------------------

def gen_params_command(args) -> int:
    hierarchy = Hierarchy(level_sizes=args.levels, thresholds=args.thresholds)
    # refused before the prime search, which can take seconds
    refused = scheme_violations(args.scheme, hierarchy) or tuple(
        f"hierarchy: {v}" for v in validate_hierarchy(hierarchy).violations)
    if refused:
        raise ValueError("; ".join(refused))
    if args.m0 is None:
        check_power_limit(args.m0_bits, args.theta)
    check_compactness(args.k, args.theta)
    if args.m0 is None and args.m0_bits > MAX_M0_BITS:
        raise ValueError(f"--m0-bits {args.m0_bits} is above the limit of {MAX_M0_BITS}")
    rng = _dealer_rng(args.seed)
    # generate_compact_sequence rejects a composite --m0, and takes the
    # search's m0 as proven
    m0 = args.m0 if args.m0 is not None else random_prime(args.m0_bits, rng)
    sequence = generate_compact_sequence(
        m0, hierarchy.n, args.k, args.theta, rng.randrange(2 ** 63)
    )
    # not validated again: the hierarchy was checked above, and
    # generate_compact_sequence returns only a prime m0 and sorted,
    # pairwise-coprime moduli inside the interval
    params = SchemeParams(sequence, hierarchy, args.family_tag, scheme=args.scheme)
    out = Path(args.out)
    try:
        _write_text(out, param_file_text(params))
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

def deal_command(args) -> int:
    params = _read(args.params, parse_param_file, "parameters")
    result = deal(args.secret, params, args.seed, args.emit_dealer_secrets)
    out_dir = Path(args.out_dir)
    # one rendering of the parameter file, hashed and embedded in the bundle
    param_text = param_file_text(params)
    digest = params_digest(params, param_text)
    files = {
        f"share_{share.participant:03d}.json":
            share_file_text(params.scheme, share, digest)
        for share in result.shares
    }
    files["public_bundle.json"] = bundle_file_text(result.public, param_text)
    if args.emit_dealer_secrets:
        files["dealer_secrets.json"] = canonical_dumps({
            "WARNING": "dealer secrets; test use only, never publish",
            "scheme": params.scheme,
            "params_digest": digest,
            "seed": None if args.seed is None else str(args.seed),
            # str(int) refuses past 4300 digits; Decimal spells the same digits
            "values": {
                key: [str(Decimal(v)) for v in vals]
                for key, vals in (result.dealer_secrets or {}).items()
            },
        })
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    # joined as strings: Path / name costs about 20 times as much per file
    prefix = os.path.join(out_dir, "")
    for name, text in files.items():
        path = prefix + name
        try:
            # share files and dealer secrets are private; the bundle is public
            _write_text(path, text, private=name != "public_bundle.json")
        except OSError as exc:
            return _cannot_write(path, exc)
    print(f"wrote {len(result.shares)} share files and public_bundle.json to {out_dir}")
    if args.seed is not None:
        print(f"seed: {args.seed} (explicit)")
    print(f"params digest: {digest}")
    return 0


# -- reconstruct -----------------------------------------------------------------

def reconstruct_command(args) -> int:
    public = _read(args.public, parse_bundle_file, "bundle")
    scheme, digest = public.params.scheme, params_digest(public.params)
    shares = []
    for path, (share_scheme, share, share_digest) in zip(
            args.shares, _read_each(args.shares, parse_share_file, "share {}")):
        # the scheme is part of the digested document, but a share file
        # carries both: an edited label alone is caught here
        if share_digest != digest or share_scheme != scheme:
            return _fail(
                EXIT_DIGEST_MISMATCH,
                f"share {path} does not belong to this bundle's parameters",
            )
        shares.append(share)
    print(reconstruct(shares, public))
    return 0


# -- audit -----------------------------------------------------------------------

def _audit_one(params: SchemeParams, adversary: tuple[int, ...],
               secret: int, deal_seed: int, budget: int) -> dict:
    """Deal, build the adversary view, and measure the posterior; the eta and
    ratio tables render the report's level profiles. ``decomposition_ok`` is
    the grouping certificate, null for a conjunctive report."""
    view = analysis.adversary_view(deal(secret, params, deal_seed), adversary)
    report = analysis.enumerate_posterior(view, work_budget=budget)
    decomposition_ok = analysis.count_grouping(report)
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
            exact = p.ratio
            ratio = f"{exact.numerator}/{exact.denominator}"
            value = float(exact)
        ratio_table.append({"level": level, "ratio": ratio, "value": value})
    rate = analysis.information_rate(params)
    return {
        "scheme": params.scheme,
        "params_digest": params_digest(params),
        "adversary": sorted(view.members),
        "total_candidates": str(report.total),
        "groups": [
            {"candidates": str(y), "num_secrets": g}
            for y, g in sorted(report.histogram.items())
        ],
        "gamma_total": sum(report.histogram.values()),
        "decomposition_ok": decomposition_ok,
        "secret_entropy_bits": report.secret_entropy,
        "conditional_entropy_bits": report.conditional_entropy,
        "loss_bits": report.loss,
        "epsilon_tolerance": DEFAULT_EPSILON,
        "eta_table": eta_table,
        "ratio_table": ratio_table,
        "rho": rate.rho,
    }


def audit_command(args) -> int:
    params = _read(args.params, parse_param_file, "parameters")
    # a ladder rung is generated before its deal checks the parameters:
    # the scheme's refusal comes first
    if refused := scheme_violations(params.scheme, params.hierarchy):
        raise InvalidParams("; ".join(refused))
    rng = _dealer_rng(args.seed)
    if args.ladder:
        rungs = []
        for m0 in args.ladder:
            sequence = generate_compact_sequence(
                m0, params.hierarchy.n, params.sequence.k, params.sequence.theta,
                rng.randrange(2 ** 63),
            )
            rung_params = dataclasses.replace(params, sequence=sequence)
            secret = args.secret if args.secret is not None else rng.randrange(m0)
            entry = _audit_one(
                rung_params, args.adversary, secret,
                rng.randrange(2 ** 63), args.budget,
            )
            entry["m0"] = str(m0)
            rungs.append(entry)
        deltas = [r["loss_bits"] for r in rungs]
        out_obj = {
            "ladder": rungs,
            "delta_trend": deltas,
            "strictly_decreasing": all(a > b for a, b in zip(deltas, deltas[1:])),
        }
    else:
        secret = args.secret
        if secret is None:
            secret = rng.randrange(params.sequence.m0)
        out_obj = _audit_one(
            params, args.adversary, secret, rng.randrange(2 ** 63), args.budget,
        )
    text = audit_report_text(out_obj)
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

def inspect_command(args) -> int:
    obj = _read(args.file, lambda obj: obj, "{}")
    kind = "unknown"
    if isinstance(obj, dict):
        if {"sequence", "hierarchy"} <= obj.keys():
            kind = "parameter file"
        elif "params_digest" in obj and "value" in obj:
            kind = "share file"
        elif "WARNING" in obj and "values" in obj:
            kind = "dealer secrets"
        elif "w" in obj:
            kind = "public bundle"
        elif "loss_bits" in obj or "ladder" in obj:
            kind = "audit report"
    print(f"# {args.file}: {kind}")
    print(canonical_dumps(obj), end="")
    return 0


# -- parser ------------------------------------------------------------------------

def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The whole command tree, and its command parsers by name. They hold no
    function objects, so they can be built once and shared by every call of
    ``main``."""
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
    p.add_argument("--family-tag", type=_family_tag_arg, default="",
                   help="hex domain-separation tag")
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", choices=SCHEMES, default="dhss")
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
    p.add_argument("--ladder", type=_ladder_arg,
                   help="regenerate the same shape at these m0 rungs")
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_WORK_BUDGET)
    p.add_argument("--secret", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("inspect", help="pretty-print any file of this tool")
    p.add_argument("file")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree."""
    return _build_parsers()[0]


# built at import: the one-time cost is paid there, not by every command
_PARSER, _COMMANDS = _build_parsers()


def _parse_args(argv):
    """``_PARSER.parse_args(argv)``, in one argparse pass for a well-formed
    command. The tree hands every string after the command's name, a ``--``
    included, to the command's parser, so that parser alone gives the same
    namespace. The tree takes over when no known command comes first, and
    when the command leaves arguments over, which the tree refuses in its
    own words."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and (command := _COMMANDS.get(argv[0])) is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return globals()[args.command.replace("-", "_") + "_command"](args)
    except (Error, ValueError) as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        return _fail(code, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
