"""Command line interface: one binary, six subcommands.

construct / verify / search / bounds / entropy / table, with JSON as the
interchange format and CSV for tables.  Exit codes are stable across
subcommands: 0 success or property holds, 2 property violated, 1 usage,
IO or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import (
    applicable_bounds,
    bound_dlk,
    bound_sc_bn,
    empirical_recovering_entropy,
)
from .construct import (
    block_construction_bn,
    diagonal_construction,
    power_construction,
    product_composition,
)
from .entropy import entropy
from .lattice import Point, _decimal, format_lattice_spec, parse_lattice_spec
from .search import DEFAULT_NODE_BUDGET, SearchConfig, run_search
from .setfile import dumps_set_file, load_set_file, save_set_file
from .verify import (
    JOIN,
    MEET,
    PROPERTIES,
    anchored_entropy,
    find_violation,
    is_recovering,
    pair_statistics,
)

# the --property choices: the property names, spelled with hyphens
_PROPERTY_CHOICES = [prop.replace("_", "-") for prop in PROPERTIES]


def _fmt9(x: float) -> float:
    """Round to 9 significant digits for byte-stable file output."""
    return float(f"{x:.9g}")


def _json_ready(obj):
    if isinstance(obj, float):
        return _fmt9(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _print_json(data) -> None:
    print(json.dumps(_json_ready(data), indent=2))


def _integer(text: str) -> int:
    """argparse type of the integer options: ASCII decimal digits only, so
    "1_0", "+4" and " 4" are usage errors rather than numbers."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected decimal digits, got {text!r}") from None


def _signed_integer(text: str) -> int:
    """_integer with an optional leading "-", for an option whose negative
    values are rejected later with a message of their own."""
    return -_integer(text[1:]) if text.startswith("-") else _integer(text)


def _parse_range(text: str) -> range:
    """Inclusive integer range: "2..8" or a single value "4", in ASCII
    decimal digits; a range whose end is below its start is an error."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = _decimal(lo), _decimal(hi)
        except ValueError:
            raise ValueError(f"bad range {text!r}; expected <lo>..<hi>") from None
        if hi < lo:
            raise ValueError(f"bad range {text!r}; <hi> is below <lo>")
        return range(lo, hi + 1)
    try:
        value = _decimal(text)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected <lo>..<hi> or <n>") from None
    return range(value, value + 1)


def _require(args: argparse.Namespace, family: str, names: list[str]) -> list:
    values = []
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise ValueError(f"construct --family {family} needs --{name}")
        values.append(value)
    return values


def cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "block-bn":
        (n,) = _require(args, "block-bn", ["n"])
        ps = block_construction_bn(n)
    elif args.family == "diagonal":
        l1, l2 = _require(args, "diagonal", ["l1", "l2"])
        ps = diagonal_construction(l1, l2)
    elif args.family == "compose":
        base_path, k = _require(args, "compose", ["base", "k"])
        ps = product_composition(load_set_file(base_path), k)
    else:  # power
        l, k = _require(args, "power", ["l", "k"])
        ps = power_construction(l, k)
    summary = f"family={args.family} size={ps.size}"
    if args.out:
        save_set_file(ps, args.out)
        print(summary)
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(dumps_set_file(ps))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ps = load_set_file(args.path)
    violation = find_violation(ps, args.property)
    if violation is None:
        print(f"OK size={ps.size}")
        return 0
    _print_json(violation.to_json_dict())
    return 2


def cmd_search(args: argparse.Namespace) -> int:
    lattice = parse_lattice_spec(args.lattice)
    seed = load_set_file(args.seed) if args.seed else None
    progress = None
    if args.progress > 0:
        def progress(nodes: int, best: int) -> None:
            elapsed = time.perf_counter() - start
            rate = nodes / elapsed if elapsed > 0 else 0
            print(f"nodes={nodes} best={best} elapsed_s={elapsed:.3f} nodes_per_s={rate:.0f}",
                  file=sys.stderr)

    config = SearchConfig(
        lattice=lattice,
        property_name=args.property,
        mode=args.mode,
        thread_count=args.threads,
        node_budget=args.node_budget,
        seed_set=seed,
        progress_interval=args.progress,
        progress=progress,
    )
    start = time.perf_counter()
    result = run_search(config)
    payload = {
        "lattice": format_lattice_spec(lattice),
        "property": config.property_name,
        "mode": config.mode,
        **result.to_json_dict(),
    }
    text = json.dumps(_json_ready(payload), indent=2) + "\n"
    if args.out:  # first, so that a failed write leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    lattice = parse_lattice_spec(args.lattice)
    reports = applicable_bounds(lattice, args.property)
    if args.json:
        _print_json([r.to_json_dict() for r in reports])
        return 0
    headers = ["lattice", "property", "construction", "bound", "name", "tight"]
    rows = [
        [
            r.lattice,
            r.property_name,
            "-" if r.construction_size is None else str(r.construction_size),
            f"{_fmt9(r.upper_bound):.9g}",
            r.bound_name,
            {True: "yes", False: "no", None: "-"}[r.tight],
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if not rows:
        print("(no applicable bounds)", file=sys.stderr)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    ps = load_set_file(args.path)
    operations = [MEET, JOIN] if args.op == "both" else [args.op]
    if args.anchor is not None:  # first: a bad anchor fails before the pair statistics
        try:
            anchor = Point(tuple(map(_decimal, args.anchor.split(","))))
        except ValueError:
            raise ValueError(f"bad anchor {args.anchor!r}; expected coords like 1,0,1,0")
        anchored = {"anchor": list(anchor.coords)}
        for op in operations:
            anchored[op] = anchored_entropy(ps, anchor, op)
    payload: dict = {
        "lattice": format_lattice_spec(ps.lattice),
        "size": ps.size,
    }
    for op in operations:
        stats = pair_statistics(ps, op)
        payload[op] = {
            "maxMultiplicity": stats.max_multiplicity,
            "pairEntropy": entropy(stats.pair_distribution),
        }
    if args.anchor is not None:
        payload["anchoredEntropy"] = anchored
    if ps.size >= 2 and is_recovering(ps):
        payload["sandwich"] = empirical_recovering_entropy(ps).to_json_dict()
    _print_json(payload)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.family == "sc-bn":
        if args.n is None:
            raise ValueError("table --family sc-bn needs --n <lo>..<hi>")
        headers = ["n", "construction", "bound", "tight"]
        rows = ([n, 1 << (n // 2), bound_sc_bn(n), "yes"] for n in _parse_range(args.n))
    else:  # dlk
        if args.l is None or args.k is None:
            raise ValueError("table --family dlk needs --l and --k <lo>..<hi>")
        headers = ["k", "construction", "bound"]

        def dlk_row(k: int) -> list:
            # the bound first: where it overflows, l^(k/2) is too big to build
            bound = _fmt9(bound_dlk(args.l, k))
            return [k, args.l ** (k // 2), bound]

        rows = map(dlk_row, _parse_range(args.k))
    # row by row, before anything is printed: the first int of more digits than
    # str() and JSON convert (>= 10^digits) fails, naming its row; stdout stays empty
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = 10 ** digits if digits else float("inf")
    checked = []
    for row in rows:
        for header, value in zip(headers, row):
            if isinstance(value, int) and value >= too_long:
                raise ValueError(f"{headers[0]} = {row[0]}: the {header} has too many "
                                 "digits to print")
        checked.append(row)
    if args.format == "json":
        _print_json([dict(zip(headers, row)) for row in checked])
    else:
        print(",".join(headers))
        for row in checked:
            print(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsets",
        description="Construct, verify, search and bound cancellative and "
        "recovering families on chain-product lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family and write it as a set file")
    p.add_argument("--family", required=True,
                   choices=["block-bn", "diagonal", "compose", "power"])
    p.add_argument("--n", type=_integer)
    p.add_argument("--l1", type=_integer)
    p.add_argument("--l2", type=_integer)
    p.add_argument("--l", type=_integer)
    p.add_argument("--k", type=_integer)
    p.add_argument("--base", help="set file with the composition base")
    p.add_argument("-o", "--out", help="output set file (default: stdout)")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", help="check a set file against a property")
    p.add_argument("path")
    p.add_argument("--property", required=True, choices=_PROPERTY_CHOICES)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("search", help="maximum family search on a lattice")
    p.add_argument("--lattice", required=True, help="b:<n> | d:<l1>,<l2>[,...] | d:<l>^<k>")
    p.add_argument("--property", required=True, choices=_PROPERTY_CHOICES)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.add_argument("--threads", type=_integer, default=1,
                   help="validated (>= 1) but inert: search runs on one thread")
    p.add_argument("--node-budget", type=_integer, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--seed", help="set file used as the initial incumbent")
    p.add_argument("--progress", type=_signed_integer, default=0, metavar="NODES",
                   help="report to stderr every NODES nodes (0 = off)")
    p.add_argument("--out", help="also write the result JSON to this file")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("bounds", help="bound and construction sizes for a lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--property", required=True, choices=_PROPERTY_CHOICES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("entropy", help="pair-value statistics of a set file")
    p.add_argument("path")
    p.add_argument("--op", choices=["meet", "join", "both"], default="both")
    p.add_argument("--anchor", help="comma-separated coordinates of an anchor point")
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("table", help="construction size vs bound over a range")
    p.add_argument("--family", required=True, choices=["sc-bn", "dlk"])
    p.add_argument("--n", help="range for sc-bn, e.g. 2..8")
    p.add_argument("--l", type=_integer, help="chain length for dlk")
    p.add_argument("--k", help="range for dlk, e.g. 2..6")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
