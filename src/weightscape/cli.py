"""Command-line front end.

Every subcommand maps to one library operation (or a documented
composition, like `reduce`).  Payload flags accept inline JSON, a file
path, or `-` for stdin.  Output is a flat table by default; `--json`
prints the same payload as canonical JSON (sorted keys, compact, one
trailing newline), byte-deterministic for identical inputs.

Exit codes: 0 success, 1 input/domain error, 2 enumeration limit
exceeded, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, weights
from .errors import (DomainError, InternalInvariantError, LimitExceeded,
                     WeightscapeError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


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


def _build_parser() -> _Parser:
    parser = _Parser(prog="weightscape",
                     description="exact combinatorics of weighted pointed "
                                 "stable curves")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    wflag = ("--weights", {"required": True,
                           "help": "weight JSON, file path, or -"})
    gran = ("--granularity", {"default": "fine", "choices": ["coarse", "fine"]})

    add("validate", "check weight data against a mode", wflag,
        ("--mode", {"default": "strict",
                    "choices": ["strict", "zero", "boundary"]}))
    add("walls", "list the nonempty walls",
        ("--genus", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}), gran)
    add("chambers", "enumerate the open chambers",
        ("--genus", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}), gran,
        ("--limit", {"type": int, "default": None}),
        ("--cache-dir", {"default": None}))
    add("locate", "position of weight data against every wall", wflag, gran)
    add("perturb", "shift into an open fine chamber", wflag)
    add("ucurve", "append the universal-curve weight", wflag)
    add("stabilize", "contract a tree to the reduced weights", wflag,
        ("--tree", {"required": True}), ("--target", {"required": True}))
    add("forget", "drop markings and restabilize", wflag,
        ("--tree", {"required": True}),
        ("--keep", {"required": True, "help": "comma-separated indices"}))
    add("strata", "enumerate stable trees up to a codimension", wflag,
        ("--max-codim", {"type": int, "required": True}),
        ("--limit", {"type": int, "default": None}))
    add("boundary", "boundary divisors of the weight data", wflag)
    add("reduce", "classify divisors under a reduction", wflag,
        ("--target", {"required": True}))
    add("git-stability", "GIT verdict of a configuration",
        ("--config", {"required": True}),
        ("--linearization", {"required": True}))
    add("git-sstypes", "strictly semistable types",
        ("--linearization", {"required": True}))
    add("tau", "normalize weights onto the boundary", wflag)
    add("match-quotient", "compare a chamber with a GIT quotient", wflag,
        ("--linearization", {"required": True}))
    add("lc-kapranov", "Kapranov-tower discrepancy ledger",
        ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--alpha", {"required": True}))
    add("lc-keel", "Keel-tower discrepancy ledger",
        ("--n", {"type": int, "required": True}),
        ("--alpha", {"required": True}), ("--beta", {"required": True}))
    add("remark76", "bundled n=6 cross-checks")
    add("named-classify", "match weight data against the named regions",
        wflag)
    add("named-weights", "canonical weights of a named family",
        ("--family", {"required": True, "help": 'tag like X(1), W(1,2), LM'}),
        ("--n", {"type": int, "required": True}))
    add("blowup-seq", "blow-up chain inventory",
        ("--family", {"required": True, "choices": ["W", "X", "Y"]}),
        ("--n", {"type": int, "required": True}))
    return parser


def _dispatch(args) -> dict:
    cmd = args.command
    if cmd == "validate":
        data = _weight_arg(args.weights, weights.Mode(args.mode))
        return {"valid": True, "mode": args.mode, **data.to_json_dict()}
    if cmd == "walls":
        found = weights.walls(args.genus, args.n,
                              weights.Granularity(args.granularity))
        return {"genus": args.genus, "n": args.n,
                "granularity": args.granularity,
                "count": len(found),
                "walls": [sorted(w.subset) for w in found]}
    if cmd == "chambers":
        granularity = weights.Granularity(args.granularity)
        chambers = weights.enumerate_chambers(
            args.genus, args.n, granularity,
            limit=args.limit, cache_dir=args.cache_dir)
        return weights.chambers_payload(args.genus, args.n, granularity,
                                        chambers)
    if cmd == "locate":
        data = _weight_arg(args.weights)
        granularity = weights.Granularity(args.granularity)
        vec = weights.locate(data, granularity)
        wall_list = weights.walls(data.genus, data.n, granularity)
        return {"signs": vec.codes(),
                "positions": [{"wall": sorted(w.subset), "position": p.value}
                              for w, p in zip(wall_list, vec.positions)]}
    if cmd == "perturb":
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        return weights.perturb_to_fine_chamber(data).to_json_dict()
    if cmd == "ucurve":
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        return weights.universal_curve_weight(data).to_json_dict()
    if cmd == "stabilize":
        from . import curves
        tree = curves.MarkedTree.from_json_dict(_read_payload(args.tree))
        a = _weight_arg(args.weights)
        b = _weight_arg(args.target)
        return curves.stabilize(tree, a, b).to_json_dict()
    if cmd == "forget":
        from . import curves
        tree = curves.MarkedTree.from_json_dict(_read_payload(args.tree))
        a = _weight_arg(args.weights)
        keep = [_keep_entry(v) for v in args.keep.split(",") if v.strip()]
        return curves.forget(tree, a, keep).to_json_dict()
    if cmd == "strata":
        from . import curves
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        strata = curves.enumerate_strata(data, args.max_codim,
                                         limit=args.limit)
        return {"count": len(strata),
                "strata": [{"codimension": s.codimension,
                            "tree": s.tree.to_json_dict()} for s in strata]}
    if cmd == "boundary":
        from . import curves
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        divisors = curves.boundary_divisors(data)
        nodal = [d for d in divisors if d.kind == curves.DivisorKind.NODAL]
        pairs = [d for d in divisors if d.kind == curves.DivisorKind.COINCIDENCE]
        return {"nodal_count": len(nodal), "coincidence_count": len(pairs),
                "divisors": [_divisor_dict(d) for d in divisors]}
    if cmd == "reduce":
        from . import curves
        a = _weight_arg(args.weights, weights.Mode.STRICT)
        b = _weight_arg(args.target)
        fates = curves.contracted_divisors(a, b)
        return {"is_isomorphism": curves.is_reduction_iso(a, b),
                "fates": [_fate_dict(f) for f in fates]}
    if cmd == "git-stability":
        from . import git
        config = git.ConfigType.from_json_dict(_read_payload(args.config))
        lin = git.Linearization.from_json_dict(
            _read_payload(args.linearization))
        return {"verdict": git.stability(config, lin).value}
    if cmd == "git-sstypes":
        from . import git
        lin = git.Linearization.from_json_dict(
            _read_payload(args.linearization))
        types = git.strictly_semistable_types(lin)
        return {"typical": git.is_typical(lin), "count": len(types),
                "types": [sorted(s) for s in types]}
    if cmd == "tau":
        from . import git
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        return git.tau(data).to_json_dict()
    if cmd == "match-quotient":
        from . import git
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        lin = git.Linearization.from_json_dict(
            _read_payload(args.linearization))
        match = git.chamber_matches_quotient(data, lin)
        return {"matches": match.matches,
                "mismatched_subsets": [sorted(s)
                                       for s in match.mismatched_subsets],
                "ambiguous_subsets": [sorted(s)
                                      for s in match.ambiguous_subsets]}
    if cmd == "lc-kapranov":
        from . import logcanon
        ledger = logcanon.kapranov_ledger(args.n, args.k, args.alpha)
        payload = ledger.to_json_dict()
        payload["ample_lc_range"] = \
            logcanon.kapranov_ample_lc_range(args.n).to_json_dict()
        return payload
    if cmd == "lc-keel":
        from . import logcanon
        return logcanon.keel_ledger(args.n, args.alpha,
                                    args.beta).to_json_dict()
    if cmd == "remark76":
        from . import logcanon
        return logcanon.remark76_check().to_json_dict()
    if cmd == "named-classify":
        from . import named
        data = _weight_arg(args.weights, weights.Mode.STRICT)
        return {"families": [f.tag for f in named.classify(data)]}
    if cmd == "named-weights":
        from . import named
        family = named.parse_tag(args.family, args.n)
        return {"family": family.tag,
                **named.weights_for(family).to_json_dict()}
    if cmd == "blowup-seq":
        from . import named
        steps = named.blowup_sequence(named.FamilyKind(args.family), args.n)
        return {"steps": [
            {"source": s.source.tag, "target": s.target.tag,
             "exceptional_count": s.exceptional_count,
             "fates": [_fate_dict(f) for f in s.fates]} for s in steps]}
    raise DomainError(f"unknown subcommand {cmd!r}")


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(err)
            return 1
        payload = _dispatch(args)
        _emit(payload, args.json, out)
        return 0
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except LimitExceeded as exc:
        err.write(f"limit exceeded: {exc}\n")
        return 2
    except (InternalInvariantError, KeyError) as exc:
        err.write(f"internal invariant breach: {exc}\n")
        return 3
    except (DomainError, WeightscapeError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
