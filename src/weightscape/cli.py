"""Command-line front end.

`_COMMANDS` declares every subcommand once, in the README's order: its
name, the library module it runs an operation of, its help text and
flags, and its handler, which maps the parsed flags to one library
operation (or a documented composition, like `reduce`).  `run` imports
that module only for the subcommand it runs.  Payload flags accept inline
JSON, a file path, or `-` for stdin.  Output is a flat table by default;
`--json` prints the same payload as canonical JSON (sorted keys, compact,
one trailing newline), byte-deterministic for identical inputs.

Exit codes: 0 success, 1 input/domain error, 2 enumeration limit
exceeded, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from . import jsonio, weights
from .errors import (DomainError, InternalInvariantError, LimitExceeded,
                     WeightscapeError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1, and
    # `run` writes the usage line and the message to its `err` stream
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}\n")


class _UsageError(Exception):
    pass


def _read_payload(raw: str) -> dict:
    raw = raw.strip()
    try:
        # a file or stdin that is not UTF-8 raises UnicodeDecodeError here
        if raw == "-":
            text = sys.stdin.read()
        elif raw.startswith("{") or raw.startswith("["):
            text = raw
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"cannot parse JSON payload: {exc}")
    if not isinstance(payload, dict):
        raise DomainError(f"a payload must be a JSON object, got {text!r}")
    return payload


def _weight_arg(raw: str, mode=weights.Mode.ZERO_ALLOWED) -> weights.WeightData:
    return weights.WeightData.from_json_dict(_read_payload(raw), mode)


def _strict_arg(raw: str) -> weights.WeightData:
    return _weight_arg(raw, weights.Mode.STRICT)


def _keep_entry(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"--keep entry {text.strip()!r} is not an integer")


def _render_table(payload, prefix="") -> list[str]:
    items = ((k, payload[k]) for k in sorted(payload)) \
        if isinstance(payload, dict) else enumerate(payload)
    lines = []
    for key, value in items:
        label = f"{prefix}{key}"
        if isinstance(value, (dict, list)):
            lines.extend(_render_table(value, label + "."))
        else:
            lines.append(f"{label}: {value}")
    return lines


def _emit(payload: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(jsonio.canonical_dumps(payload))
    else:
        for line in _render_table(payload):
            out.write(line + "\n")


def _divisor_dict(divisor: curves.BoundaryDivisor) -> dict:
    entry = {"kind": divisor.kind.value, "members": sorted(divisor.members)}
    if divisor.complement is not None:
        entry["complement"] = sorted(divisor.complement)
    return entry


def _fate_dict(fate: curves.DivisorFate) -> dict:
    entry = {"divisor": _divisor_dict(fate.divisor),
             "status": fate.status.value}
    if fate.collapsed_side is not None:
        entry["collapsed_side"] = sorted(fate.collapsed_side)
    if fate.factor_weights is not None:
        entry["factor_weights"] = fate.factor_weights.to_json_dict()
    return entry


def _tree_arg(raw: str, curves):
    return curves.MarkedTree.from_json_dict(_read_payload(raw))


def _lin_arg(raw: str, git):
    return git.Linearization.from_json_dict(_read_payload(raw))


def _validate(a, weights) -> dict:
    data = _weight_arg(a.weights, weights.Mode(a.mode))
    return {"valid": True, "mode": a.mode, **data.to_json_dict()}


def _walls(a, weights) -> dict:
    found = weights.walls(a.genus, a.n, weights.Granularity(a.granularity))
    return {"genus": a.genus, "n": a.n, "granularity": a.granularity,
            "count": len(found), "walls": [sorted(w.subset) for w in found]}


def _chambers(a, weights) -> dict:
    granularity = weights.Granularity(a.granularity)
    chambers = weights.enumerate_chambers(a.genus, a.n, granularity,
                                          limit=a.limit, cache_dir=a.cache_dir)
    return weights.chambers_payload(a.genus, a.n, granularity, chambers)


def _locate(a, weights) -> dict:
    data = _weight_arg(a.weights)
    granularity = weights.Granularity(a.granularity)
    vec = weights.locate(data, granularity)
    wall_list = weights.walls(data.genus, data.n, granularity)
    return {"signs": vec.codes(),
            "positions": [{"wall": sorted(w.subset), "position": p.value}
                          for w, p in zip(wall_list, vec.positions)]}


def _strata(a, curves) -> dict:
    data = _strict_arg(a.weights)
    strata = curves.enumerate_strata(data, a.max_codim, limit=a.limit)
    return {"count": len(strata),
            "strata": [{"codimension": s.codimension,
                        "tree": s.tree.to_json_dict()} for s in strata]}


def _boundary(a, curves) -> dict:
    divisors = curves.boundary_divisors(_strict_arg(a.weights))
    nodal = [d for d in divisors if d.kind == curves.DivisorKind.NODAL]
    pairs = [d for d in divisors if d.kind == curves.DivisorKind.COINCIDENCE]
    return {"nodal_count": len(nodal), "coincidence_count": len(pairs),
            "divisors": [_divisor_dict(d) for d in divisors]}


def _reduce(a, curves) -> dict:
    data = _strict_arg(a.weights)
    target = _weight_arg(a.target)
    fates = curves.contracted_divisors(data, target)
    return {"is_isomorphism": curves.is_reduction_iso(data, target),
            "fates": [_fate_dict(f) for f in fates]}


def _sstypes(a, git) -> dict:
    lin = _lin_arg(a.linearization, git)
    types = git.strictly_semistable_types(lin)  # typical iff there is none
    return {"typical": not types, "count": len(types),
            "types": [sorted(s) for s in types]}


def _match_quotient(a, git) -> dict:
    data = _strict_arg(a.weights)
    match = git.chamber_matches_quotient(data, _lin_arg(a.linearization, git))
    return {"matches": match.matches,
            "mismatched_subsets": [sorted(s)
                                   for s in match.mismatched_subsets],
            "ambiguous_subsets": [sorted(s) for s in match.ambiguous_subsets]}


def _named_weights(a, named) -> dict:
    family = named.parse_tag(a.family, a.n)
    return {"family": family.tag, **named.weights_for(family).to_json_dict()}


def _blowup_seq(a, named) -> dict:
    steps = named.blowup_sequence(named.FamilyKind(a.family), a.n)
    return {"steps": [
        {"source": s.source.tag, "target": s.target.tag,
         "exceptional_count": s.exceptional_count,
         "fates": [_fate_dict(f) for f in s.fates]} for s in steps]}


def _required(flag, **kwargs):
    return flag, {"required": True, **kwargs}


WEIGHTS = _required("--weights", help="weight JSON, file path, or -")
GRANULARITY = ("--granularity", {"default": "fine",
                                 "choices": ["coarse", "fine"]})
GENUS, N = _required("--genus", type=int), _required("--n", type=int)
LIMIT = ("--limit", {"type": int, "default": None})
TREE, TARGET = _required("--tree"), _required("--target")
LINEARIZATION = _required("--linearization")

# name: (module the handler calls, help text, flags, handler); a handler
# takes the parsed flags and that module and returns the output payload
_COMMANDS = {
    "validate": ("weights", "check weight data against a mode",
                 [WEIGHTS, ("--mode", {"default": "strict", "choices":
                                       ["strict", "zero", "boundary"]})],
                 _validate),
    "walls": ("weights", "list the nonempty walls", [GENUS, N, GRANULARITY],
              _walls),
    "chambers": ("weights", "enumerate the open chambers",
                 [GENUS, N, GRANULARITY, LIMIT,
                  ("--cache-dir", {"default": None})], _chambers),
    "locate": ("weights", "position of weight data against every wall",
               [WEIGHTS, GRANULARITY], _locate),
    "perturb": ("weights", "shift into an open fine chamber", [WEIGHTS],
                lambda a, m: m.perturb_to_fine_chamber(
                    _strict_arg(a.weights)).to_json_dict()),
    "ucurve": ("weights", "append the universal-curve weight", [WEIGHTS],
               lambda a, m: m.universal_curve_weight(
                   _strict_arg(a.weights)).to_json_dict()),
    "stabilize": ("curves", "contract a tree to the reduced weights",
                  [WEIGHTS, TREE, TARGET],
                  lambda a, m: m.stabilize(
                      _tree_arg(a.tree, m), _weight_arg(a.weights),
                      _weight_arg(a.target)).to_json_dict()),
    "forget": ("curves", "drop markings and restabilize",
               [WEIGHTS, TREE, _required("--keep",
                                         help="comma-separated indices")],
               lambda a, m: m.forget(
                   _tree_arg(a.tree, m), _weight_arg(a.weights),
                   [_keep_entry(v) for v in a.keep.split(",") if v.strip()]
               ).to_json_dict()),
    "strata": ("curves", "enumerate stable trees up to a codimension",
               [WEIGHTS, _required("--max-codim", type=int), LIMIT], _strata),
    "boundary": ("curves", "boundary divisors of the weight data", [WEIGHTS],
                 _boundary),
    "reduce": ("curves", "classify divisors under a reduction",
               [WEIGHTS, TARGET], _reduce),
    "git-stability": ("git", "GIT verdict of a configuration",
                      [_required("--config"), LINEARIZATION],
                      lambda a, m: {"verdict": m.stability(
                          m.ConfigType.from_json_dict(_read_payload(a.config)),
                          _lin_arg(a.linearization, m)).value}),
    "git-sstypes": ("git", "strictly semistable types", [LINEARIZATION],
                    _sstypes),
    "tau": ("git", "normalize weights onto the boundary", [WEIGHTS],
            lambda a, m: m.tau(_strict_arg(a.weights)).to_json_dict()),
    "match-quotient": ("git", "compare a chamber with a GIT quotient",
                       [WEIGHTS, LINEARIZATION], _match_quotient),
    "lc-kapranov": ("logcanon", "Kapranov-tower discrepancy ledger",
                    [N, _required("--k", type=int), _required("--alpha")],
                    lambda a, m: {
                        **m.kapranov_ledger(a.n, a.k, a.alpha).to_json_dict(),
                        "ample_lc_range":
                            m.kapranov_ample_lc_range(a.n).to_json_dict()}),
    "lc-keel": ("logcanon", "Keel-tower discrepancy ledger",
                [N, _required("--alpha"), _required("--beta")],
                lambda a, m: m.keel_ledger(a.n, a.alpha,
                                           a.beta).to_json_dict()),
    "remark76": ("logcanon", "bundled n=6 cross-checks", [],
                 lambda a, m: m.remark76_check().to_json_dict()),
    "named-classify": ("named", "match weight data against the named regions",
                       [WEIGHTS],
                       lambda a, m: {"families": [f.tag for f in m.classify(
                           _strict_arg(a.weights))]}),
    "named-weights": ("named", "canonical weights of a named family",
                      [_required("--family", help="tag like X(1), W(1,2), LM"),
                       N], _named_weights),
    "blowup-seq": ("named", "blow-up chain inventory",
                   [_required("--family", choices=["W", "X", "Y"]), N],
                   _blowup_seq),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="weightscape",
                     description="exact combinatorics of weighted pointed "
                                 "stable curves")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(err)
            return 1
        home, _, _, handler = _COMMANDS[args.command]
        module = importlib.import_module(f".{home}", __package__)
        _emit(handler(args, module), args.json, out)
        return 0
    except _UsageError as exc:
        err.write(str(exc))
        return 1
    except LimitExceeded as exc:
        err.write(f"limit exceeded: {exc}\n")
        return 2
    except (InternalInvariantError, KeyError) as exc:
        err.write(f"internal invariant breach: {exc}\n")
        return 3
    except (WeightscapeError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
