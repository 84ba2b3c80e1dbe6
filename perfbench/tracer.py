"""Span tracing of the crthss modules from outside the package.

While installed, every public function of a crthss module is replaced, in
every crthss module namespace that refers to it, by a wrapper that records a
span: name, start, end, parent span, op id, whether an exception left it, and
shape attributes. Restoring puts the original objects back. Nothing under
``src/`` is modified.

Span attributes carry only shapes (bit lengths, counts, scheme names), never
an argument's value, so secrets, share values and dealer randomness cannot
reach the trace. The one non-shape number kept is the sum of ``m0`` over
audit enumerations, a public parameter, stored as a counter.
"""

import functools
import json
import types
from time import process_time

MODULES = (
    "cli", "fileformat", "params", "oneway", "crt",
    "dhss", "chss", "asmuth_bloom", "analysis",
)
SCHEME_NAMES = frozenset({"dhss", "chss", "ab"})
_VALIDATORS = frozenset({
    "params.validate_params", "params.validate_dealable",
    "params.validate_compact", "params.validate_hierarchy",
    "params.validate_sequence_structure",
})


def _params_shape(params) -> dict:
    seq, hier = params.sequence, params.hierarchy
    return {"m0_bits": seq.m0.bit_length(), "n": hier.n, "m": hier.m}


def _shape(pkg, args) -> dict:
    """Shape of the first argument; values are never recorded."""
    if not args:
        return {}
    first = args[0]
    if isinstance(first, pkg.params.SchemeParams):
        return _params_shape(first)
    if isinstance(first, pkg.dhss.PublicBundle):
        return _params_shape(first.params)
    if isinstance(first, pkg.analysis.AdversaryView):
        return {"members": len(first.members), **_params_shape(first.public.params)}
    if isinstance(first, (list, tuple)):
        return {"len": len(first)}
    if isinstance(first, str) and first in SCHEME_NAMES:
        return {"scheme": first}
    if len(args) > 1 and isinstance(args[1], pkg.params.SchemeParams):
        return _params_shape(args[1])
    return {}


class Tracer:
    """Collects spans and counters in memory while installed on a package."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    def __enter__(self):
        modules = [getattr(self.pkg, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    layer = module.__name__.rsplit(".", 1)[1]
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._saved):
            namespace[attr] = original
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        pkg, spans, stack, counters = self.pkg, self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            attrs = _shape(pkg, args)
            failed = True
            start = process_time()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = process_time()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, failed, attrs)
            if name == "fileformat.canonical_dumps":
                attrs["bytes"] = len(result)
            elif name == "params.is_prime":
                attrs["prime"] = bool(result)
            elif name == "analysis.enumerate_posterior":
                counters["analysis.secrets_counted"] = (
                    counters.get("analysis.secrets_counted", 0)
                    + args[0].public.params.sequence.m0
                )
            return result

        return traced

    def dumps(self) -> str:
        """Spans as JSON lines, then one line of counters."""
        lines = [
            json.dumps({"name": n, "start": s, "end": e, "parent": p, "op": op,
                        "error": err, "attrs": a}, sort_keys=True)
            for n, s, e, p, op, err, a in self.spans
        ]
        lines.append(json.dumps({"counters": self.counters}, sort_keys=True))
        return "\n".join(lines) + "\n"


def _unit(name: str) -> str:
    if name.endswith(("_ratio", "_per_deal")):
        return "ratio"
    if name.endswith("_s"):
        return "s/cycle"
    return "B/cycle" if name.endswith("bytes_out") else "count/cycle"


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, per cycle of the workload mix.

    A span's self time is its duration minus its child spans' durations. A
    module's time under an entry point (``dhss.deal_self_s`` and the like)
    also counts the self time of same-module helpers it called, so it is the
    time spent in that module's own code below the entry.
    """
    spans = tracer.spans
    count = len(spans)
    child = [0.0] * count
    same = [0.0] * count
    own = [0.0] * count
    for i in range(count - 1, -1, -1):
        name, start, end, parent, _, _, _ = spans[i]
        dur = end - start
        own[i] = dur - child[i] + same[i]
        if parent is not None:
            child[parent] += dur
            if spans[parent][0].split(".", 1)[0] == name.split(".", 1)[0]:
                same[parent] += own[i]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    entry_own: dict[str, float] = {}
    entry_total: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in MODULES}
    errors = {layer: 0 for layer in MODULES}
    validate_calls = 0
    validate_s = 0.0
    solve_moduli = pair_checks = bytes_out = primes = 0
    for i, (name, start, end, parent, _, failed, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent is not None else ""
        outer = parent_name.split(".", 1)[0] != layer
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[layer] += (end - start) - child[i]
        if outer:
            entry_own[name] = entry_own.get(name, 0.0) + own[i]
            entry_total[name] = entry_total.get(name, 0.0) + (end - start)
            errors[layer] += failed
        if name in _VALIDATORS and parent_name not in _VALIDATORS:
            validate_calls += 1
            validate_s += end - start
        if name == "crt.crt_solve":
            k = attrs.get("len", 0)
            solve_moduli += k
            pair_checks += k * (k - 1) // 2
        elif name == "fileformat.canonical_dumps" and layer != parent_name.split(".", 1)[0]:
            bytes_out += attrs.get("bytes", 0)
        elif name == "params.is_prime":
            primes += attrs.get("prime", False)

    def per_cycle(value):
        return value / cycles

    def ratio(num, den):
        return num / den if den else 0.0

    deals = calls.get("dhss.dhss_deal", 0) + calls.get("chss.chss_deal", 0)
    fileformat_calls = sum(v for k, v in calls.items() if k.startswith("fileformat."))
    analysis_other = sum(
        v for k, v in entry_total.items()
        if k.startswith("analysis.")
        and k not in ("analysis.enumerate_posterior", "analysis.count_grouping")
    )
    out = {
        "cli.calls": per_cycle(sum(v for k, v in calls.items() if k.startswith("cli."))),
        "cli.self_s": per_cycle(self_s["cli"]),
        "fileformat.calls": per_cycle(fileformat_calls),
        "fileformat.self_s": per_cycle(self_s["fileformat"]),
        "fileformat.bytes_out": per_cycle(bytes_out),
        "fileformat.digest_calls": per_cycle(calls.get("fileformat.params_digest", 0)),
        "params.validate_calls": per_cycle(validate_calls),
        "params.validate_s": per_cycle(validate_s),
        "params.validate_per_deal": ratio(validate_calls, deals),
        "params.generate_calls": per_cycle(calls.get("params.generate_compact_sequence", 0)),
        "params.generate_s": per_cycle(total.get("params.generate_compact_sequence", 0.0)),
        "params.is_prime_calls": per_cycle(calls.get("params.is_prime", 0)),
        "params.prime_hit_ratio": ratio(primes, calls.get("params.is_prime", 0)),
        "oneway.eval_calls": per_cycle(calls.get("oneway.eval_owf", 0)),
        "oneway.eval_s": per_cycle(total.get("oneway.eval_owf", 0.0)),
        "oneway.evals_per_deal": ratio(calls.get("oneway.eval_owf", 0), deals),
        "crt.solve_calls": per_cycle(calls.get("crt.crt_solve", 0)),
        "crt.solve_moduli": per_cycle(solve_moduli),
        "crt.pair_checks": per_cycle(pair_checks),
        "crt.mod_inverse_calls": per_cycle(calls.get("crt.mod_inverse", 0)),
        "crt.solve_s": per_cycle(total.get("crt.crt_solve", 0.0)),
        "dhss.deal_self_s": per_cycle(entry_own.get("dhss.dhss_deal", 0.0)),
        "dhss.reconstruct_self_s": per_cycle(entry_own.get("dhss.dhss_reconstruct", 0.0)),
        "dhss.lift_calls": per_cycle(calls.get("dhss.lift_share", 0)),
        "chss.deal_self_s": per_cycle(entry_own.get("chss.chss_deal", 0.0)),
        "chss.reconstruct_self_s": per_cycle(entry_own.get("chss.chss_reconstruct", 0.0)),
        "asmuth_bloom.reconstruct_self_s": per_cycle(
            entry_own.get("asmuth_bloom.ab_reconstruct", 0.0)),
        "analysis.enumerate_s": per_cycle(total.get("analysis.enumerate_posterior", 0.0)),
        "analysis.enumerate_self_s": per_cycle(
            entry_own.get("analysis.enumerate_posterior", 0.0)),
        "analysis.secrets_counted": per_cycle(
            tracer.counters.get("analysis.secrets_counted", 0)),
        "analysis.count_grouping_s": per_cycle(total.get("analysis.count_grouping", 0.0)),
        "analysis.other_s": per_cycle(analysis_other),
    }
    for layer in MODULES:
        out[f"{layer}.errors"] = per_cycle(errors[layer])
    out["trace.spans"] = per_cycle(count)
    return {name: (value, _unit(name)) for name, value in out.items()}
