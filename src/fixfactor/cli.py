"""Command-line interface.

Commands: decompose, trace, oracle, quotient, lyapunov, ergodic, ladder,
window, census, export-dot.  Finite systems travel as JSON objects
``{"points": [...], "specializes": [[x, y], ...], "map": {...}}`` where a
pair [x, y] puts x into the closure of {y}; the relation is closed
reflexively and transitively on load and unknown fields are rejected.

Exit codes: 0 success, 1 a verification check failed (the report carries
a counterexample), 2 usage or input-format errors.  All output is
deterministic: every JSON report, and every system file the CLI writes,
is the bytes of ``json.dumps`` of it with an indent of 2 and sorted keys,
followed by a newline; ``report_json`` writes them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .decomposition import (
    Partition,
    oracle_partition,
    quotient,
    stabilize,
)
from .errors import FixfactorError, FormatError
from .ordinals import parse_ordinal
from .stability import stability_report
from .topology import FiniteSystem, _iter_bits, build_system, system_payload

SYSTEM_FIELDS = {"points", "specializes", "map"}


def load_system(path: str) -> FiniteSystem:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: byte {e.start}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path} is not valid JSON: line {e.lineno}") from e
    except RecursionError as e:
        raise FormatError(f"{path} is nested too deeply to read") from e
    return system_from_json(raw, where=path)


def system_from_json(raw: dict, where: str = "<input>") -> FiniteSystem:
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: top level must be an object")
    unknown = set(raw) - SYSTEM_FIELDS
    if unknown:
        raise FormatError(f"{where}: unknown fields {sorted(unknown)}")
    missing = SYSTEM_FIELDS - set(raw)
    if missing:
        raise FormatError(f"{where}: missing fields {sorted(missing)}")
    points = raw["points"]
    pairs = raw["specializes"]
    mapping = raw["map"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise FormatError(f"{where}: field 'points' must be a list of strings")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2
        and isinstance(p[0], str) and isinstance(p[1], str)
        for p in pairs
    ):
        raise FormatError(f"{where}: field 'specializes' must be a list of string pairs")
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise FormatError(f"{where}: field 'map' must be an object of strings")
    return build_system(points, [tuple(p) for p in pairs], mapping)


def system_hash(sys_: FiniteSystem) -> str:
    return payload_hash(system_payload(sys_))


def payload_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def class_lists(p: Partition) -> list[list[str]]:
    """The sorted member names of each class, in class order, from one
    pass over the points."""
    lists: list[list[str]] = [[] for _ in p.classes]
    for name, c in zip(p.space.points, p.class_of):
        lists[c].append(name)
    for names in lists:
        names.sort()
    return lists


def decomposition_report(sys_: FiniteSystem) -> dict:
    trace = stabilize(sys_)
    oracle = oracle_partition(sys_)
    payload = system_payload(sys_)
    listed: dict[tuple[int, ...], list[list[str]]] = {}

    def listed_once(p: Partition) -> list[list[str]]:
        if p.classes not in listed:
            listed[p.classes] = class_lists(p)
        return listed[p.classes]

    return {
        "system": payload,
        "system_hash": payload_hash(payload),
        "trace": [
            {"degree": str(d), "classes": listed_once(p)}
            for d, p in trace.entries
        ],
        "stabilization_degree": str(trace.stabilization_degree),
        "stationary_classes": listed_once(trace.stationary_partition),
        "dim_fix": oracle.num_classes,
        "ergodic": trace.stationary_partition.num_classes == 1,
        "oracle_matches": trace.stationary_partition.same_blocks(oracle),
    }


def export_dot(sys_: FiniteSystem) -> str:
    """DOT graph: map edges solid, covering specialization pairs dashed."""
    space = sys_.space
    trace = stabilize(sys_)
    part = trace.stationary_partition
    palette = [
        "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
        "lightpink", "aquamarine", "wheat",
    ]
    lines = ["digraph system {", "  rankdir=LR;", "  node [style=filled];"]
    for i, p in enumerate(space.points):
        cls = part.class_of[i]
        color = palette[cls % len(palette)]
        label = _dot_str(f"{p}|{cls}")
        lines.append(f"  {_dot_str(p)} [label={label}, fillcolor={color}];")
    for p in space.points:
        lines.append(f"  {_dot_str(p)} -> {_dot_str(sys_.map(p))};")
    for x, y in _covering_pairs(sys_):
        lines.append(f"  {_dot_str(x)} -> {_dot_str(y)} [style=dashed, arrowhead=empty];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_str(text: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _covering_pairs(sys_: FiniteSystem) -> list[tuple[str, str]]:
    """Transitive reduction of specialization: reduce the order on the
    mutually-specializing groups, then add one cycle per nontrivial group.

    Mutually specializing points have identical minimal open sets, and
    each group is named by its least point, its head.  ``up & ~down`` is
    what lies strictly above a point, and head b covers head a when b lies
    strictly above a but not strictly above any point strictly above a.
    """
    space = sys_.space
    points = space.points
    groups: dict[int, list[int]] = {}  # minimal open set -> its points, ascending
    for i, u in enumerate(space.up):
        groups.setdefault(u, []).append(i)
    heads = sum(1 << members[0] for members in groups.values())
    above = [u & ~d for u, d in zip(space.up, space.down)]
    out = []
    for members in groups.values():
        a = members[0]
        covers = above[a] & heads
        for k in _iter_bits(covers):
            covers &= ~above[k]
        out += [(points[a], points[b]) for b in _iter_bits(covers)]
    for members in groups.values():
        if len(members) > 1:
            for a, b in zip(members, members[1:] + members[:1]):
                out.append((points[a], points[b]))
    return out


def report_json(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``.

    ``indent`` keeps ``json.dumps`` off its C encoder, so this writer does
    the layout itself.  A string goes through the C escaper that the
    pure-Python encoder calls too, with no recursion, so a list or dict of
    strings is one ``join``; any other scalar goes to ``json.dumps``.
    ``newline`` is a line break followed by the indent of the enclosing
    level.  A key that is not a ``str`` raises ``TypeError``, from the
    escaper or from the sort.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [_encode_str(x) if isinstance(x, str) else report_json(x, inner)
                 for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_encode_str(k) + ": "
                 + (_encode_str(v) if isinstance(v, str) else report_json(v, inner))
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)


def _emit(data, args) -> None:
    text = data if isinstance(data, str) else report_json(data)
    if args.out is not None:
        Path(args.out).write_text(text + ("" if text.endswith("\n") else "\n"),
                                  encoding="utf-8")
    else:
        print(text)


def _refuse_bad_out(out: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work:
    an empty value, a directory, or a path whose parent is not a
    directory (missing, or a file)."""
    if out is None:
        return
    if out == "":  # not Path(""), the working directory
        raise OSError("--out: an empty value names no file")
    path = Path(out)
    if path.is_dir():
        raise OSError(f"--out: {path} is a directory")
    if not path.parent.is_dir():
        raise OSError(f"--out: {path.parent} is not a directory")


def cmd_decompose(args) -> int:
    sys_ = load_system(args.system)
    if args.format == "dot":
        _emit(export_dot(sys_), args)
    else:
        _emit(decomposition_report(sys_), args)
    return 0


def cmd_trace(args) -> int:
    sys_ = load_system(args.system)
    trace = stabilize(sys_)
    _emit({
        "system_hash": system_hash(sys_),
        "entries": [
            {"degree": str(d), "classes": class_lists(p)}
            for d, p in trace.entries
        ],
        "stabilization_degree": str(trace.stabilization_degree),
    }, args)
    return 0


def cmd_oracle(args) -> int:
    sys_ = load_system(args.system)
    oracle = oracle_partition(sys_)
    _emit({
        "system_hash": system_hash(sys_),
        "classes": class_lists(oracle),
        "dim_fix": oracle.num_classes,
    }, args)
    return 0


def cmd_quotient(args) -> int:
    sys_ = load_system(args.system)
    trace = stabilize(sys_)
    q = quotient(sys_, trace.stationary_partition)
    _emit({
        "quotient": system_payload(q.quotient),
        "projection": q.projection,
    }, args)
    return 0


def cmd_lyapunov(args) -> int:
    sys_ = load_system(args.system)
    members = [m for m in args.set.split(",") if m]
    subject = sys_.space.pointset(members)
    rep = stability_report(sys_, subject)
    _emit({
        "system_hash": system_hash(sys_),
        "set": sorted(subject.members()),
        "stable_plain": rep.stable_plain,
        "stable_by_degree": [[str(d), ok] for d, ok in rep.stable_by_degree],
        "absolutely_stable": rep.absolutely_stable,
    }, args)
    return 0


def cmd_ergodic(args) -> int:
    sys_ = load_system(args.system)
    trace = stabilize(sys_)
    _emit({
        "system_hash": system_hash(sys_),
        "ergodic": trace.stationary_partition.num_classes == 1,
        "dim_fix": oracle_partition(sys_).num_classes,
    }, args)
    return 0


def cmd_ladder(args) -> int:
    from .ladder import build_ladder, ladder_aorb0, ladder_trace, parse_term

    space = build_ladder(parse_term(args.term))
    if args.aorb0 is not None:
        result = ladder_aorb0(space, args.aorb0)
        _emit({
            "term": str(space.term),
            "locator": args.aorb0,
            "aorb0": result.to_json(),
        }, args)
        return 0
    trace = ladder_trace(space, parse_ordinal(args.max_degree))
    _emit(trace.to_json(), args)
    return 0


def cmd_window(args) -> int:
    from .ladder import build_ladder, ladder_trace, parse_term, window, window_check

    space = build_ladder(parse_term(args.term))
    win = window(space, args.family_cut, args.strand_cut)
    payload = win.to_json()
    if args.system_out is not None:
        fs = win.to_finite_system()
        Path(args.system_out).write_text(report_json(system_payload(fs)) + "\n",
                                         encoding="utf-8")
        payload["system_written_to"] = args.system_out
    code = 0
    if args.check:
        trace = ladder_trace(space, parse_ordinal(args.max_degree))
        report = window_check(space, win, trace=trace)
        payload["audit"] = report.to_json()
        code = 0 if report.ok() else 1
    _emit(payload, args)
    return code


def cmd_census(args) -> int:
    from . import census as census_mod

    if args.counterexample_dir == "":  # not Path(""), the working directory
        raise OSError("--counterexample-dir: an empty value names no directory")
    outdir = None if args.counterexample_dir is None else Path(args.counterexample_dir)
    if outdir is not None:
        # refused before the run, but made only after it, so that a run
        # refused for its other arguments creates nothing
        for path in (outdir, *outdir.parents):
            if path.exists() and not path.is_dir():
                raise OSError(f"--counterexample-dir: {path} is not a directory")
    if args.check == "all":
        checks = census_mod.ALL_CHECK_NAMES
    else:
        checks = tuple(args.check.split(","))
    report = census_mod.run_census(
        args.points, checks=checks, up_to_iso=args.up_to_iso, jobs=args.jobs
    )
    _emit(report.to_json(), args)
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, outcome in report.checks.items():
            for i, ce in enumerate(outcome.counterexamples):
                path = outdir / f"{name}-{i}.json"
                path.write_text(report_json(ce["system"]) + "\n", encoding="utf-8")
    failed = census_mod.census_failures(report)
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    sys_ = load_system(args.system)
    _emit(export_dot(sys_), args)
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing leaves it as it was."""
    # usage and help wrap to the width argparse takes with no terminal, not
    # to the terminal's, so they are the same bytes everywhere
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="fixfactor",
        description="state-space decomposition of finite and ladder systems",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, formatter_class=formatter, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the report to a file instead of stdout")
        return p

    p = add("decompose", cmd_decompose, help="full decomposition report")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("trace", cmd_trace, help="degree trace only")
    p.add_argument("system")

    p = add("oracle", cmd_oracle, help="level-set oracle partition")
    p.add_argument("system")

    p = add("quotient", cmd_quotient, help="quotient by the stationary partition")
    p.add_argument("system")

    p = add("lyapunov", cmd_lyapunov, help="stability report for a set")
    p.add_argument("system")
    p.add_argument("--set", required=True, help="comma-separated point names")

    p = add("ergodic", cmd_ergodic, help="topological ergodicity verdict")
    p.add_argument("system")

    p = add("ladder", cmd_ladder, help="symbolic ladder trace")
    p.add_argument("term", help="ladder term, e.g. 'cat(strand)'")
    p.add_argument("--max-degree", default="w*2", help="ordinal literal cap")
    p.add_argument("--aorb0", metavar="LOCATOR",
                   help="report the base orbit of one point instead")

    p = add("window", cmd_window, help="materialize and audit a finite window")
    p.add_argument("term")
    p.add_argument("--family-cut", type=int, default=3)
    p.add_argument("--strand-cut", type=int, default=3)
    p.add_argument("--max-degree", default="w*2")
    p.add_argument("--check", action="store_true", help="run the window audit")
    p.add_argument("--system-out", help="write the window as a system JSON file")

    p = add("census", cmd_census, help="exhaustive verification campaign")
    p.add_argument("--points", type=positive_int, required=True)
    p.add_argument("--check", default="all",
                   help="comma-separated check names, or 'all'")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--counterexample-dir")

    p = add("export-dot", cmd_export_dot, help="DOT graph of a system")
    p.add_argument("system")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _refuse_bad_out(args.out)
        return args.fn(args)
    except FixfactorError as e:
        print(f"error[{e.code}]: {e.message}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error[E_IO]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
