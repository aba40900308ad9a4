"""Command-line surface: stable text reports over the standard file format.

Every command is deterministic: identical inputs and flags produce
byte-identical output. Reports start with '#'-prefixed metadata (schema,
tool version, command, input digest) followed by a tab-separated payload.
Exit codes: 0 success, 1 property-check failure, 2 input or argument error,
3 refusal (hypothesis not met).

Import policy: this module loads no other bergec4 module at import time.
Each ``cmd_*`` imports the modules it runs when it runs, so ``--version``
loads no library module and ``check`` loads only ``hypergraph`` and
``berge``. Library modules keep their imports at the top.
"""

from __future__ import annotations

import argparse
import functools
import sys

import bergec4

SCHEMA = "bergec4.report.v1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _header(command: str, digest: str | None = None, extra: list[str] | None = None) -> list[str]:
    lines = [
        f"# schema {SCHEMA}",
        f"# tool bergec4 {bergec4.__version__}",
        f"# command {command}",
    ]
    if digest is not None:
        lines.append(f"# input {digest}")
    lines.extend(extra or [])
    return lines


def _load(path: str) -> bergec4.Hypergraph:
    from bergec4.hypergraph import Hypergraph

    with open(path, "r", encoding="utf-8") as fh:
        return Hypergraph.from_text(fh.read())


def _csv(values) -> str:
    return ",".join(map(str, values))


def _witness_lines(h: bergec4.Hypergraph, w: bergec4.BergeCycleWitness) -> list[str]:
    lines = [
        f"vertices\t{_csv(w.vertices)}",
        f"edge_indices\t{_csv(w.edge_indices)}",
    ]
    lines.extend(f"witness_edge\t{i}\t{_csv(h.edges[i])}" for i in w.edge_indices)
    return lines


def cmd_shadow(args) -> int:
    from bergec4.hypergraph import degree_profile, shadow

    h = _load(args.input)
    adj = shadow(h)
    pairs = [(x, y) for x, a in enumerate(adj) for y in sorted(a) if x < y]
    profile = degree_profile(h)
    lines = _header("shadow", h.digest())
    lines.append(f"n\t{h.n}")
    lines.append(f"edge_count\t{h.edge_count}")
    lines.append(f"shadow_edge_count\t{len(pairs)}")
    lines.extend(f"shadow_edge\t{x},{y}" for x, y in pairs)
    lines.append("degree\tvertex\thyper\tshadow\texcess")
    for v in range(h.n):
        lines.append(f"degree\t{v}\t{profile.hyper[v]}\t{profile.shadow[v]}\t{profile.excess[v]}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_check(args) -> int:
    from bergec4.berge import find_berge_cycle

    if args.length < 2:
        raise ValueError(f"cycle length must be >= 2, got {args.length}")
    h = _load(args.input)
    w = find_berge_cycle(h, args.length)
    lines = _header("check", h.digest())
    lines.append(f"length\t{args.length}")
    if w is None:
        lines.append("result\tfree")
    else:
        lines.append("result\tcycle")
        lines.extend(_witness_lines(h, w))
    print("\n".join(lines))
    return EXIT_OK


def cmd_blocks(args) -> int:
    from bergec4.blocks import block_degrees, decompose

    h = _load(args.input)
    blocks = decompose(h)
    db = block_degrees(h, blocks)
    lines = _header("blocks", h.digest())
    lines.append(f"n\t{h.n}")
    lines.append(f"edge_count\t{h.edge_count}")
    lines.append(f"block_count\t{len(blocks)}")
    for i, b in enumerate(blocks):
        lines.append(
            f"block\t{i}\ttype={b.classification.value}"
            f"\tedges={_csv(b.edge_indices)}"
            f"\tvertices={_csv(sorted(b.vertex_set))}"
            f"\tleaves={_csv(b.leaf_edges)}"
        )
    lines.append("block_degree\tvertex\tcount")
    for v in range(h.n):
        lines.append(f"block_degree\t{v}\t{db[v]}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_census(args) -> int:
    from bergec4.census import census

    h = _load(args.input)
    report = census(h, diagonal_scope=args.diagonal_scope)
    note = "" if report.bc4_free else "\thypothesis not met"
    lines = _header("census", h.digest())
    lines.append(f"diagonal_scope\t{report.diagonal_scope}")
    lines.append(f"bc4_free\t{'true' if report.bc4_free else 'false'}")
    lines.append(f"total_3paths\t{report.total_3paths}")
    lines.append(f"good_3paths\t{report.good_3paths}")
    lines.append(f"nongood_3paths\t{report.nongood_3paths}")
    lines.append(f"rare_4cycles\t{report.rare_4cycles}")
    lines.append(f"four_cycles\t{report.four_cycle_count}")
    histogram = _csv(f"{k}:{v}" for k, v in report.representative_histogram.items())
    lines.append(f"representative_histogram\t{histogram}")
    for rec in report.rare_cycles:
        lines.append(f"rare_cycle\t{_csv(rec.vertices)}\trepresentatives={_csv(rec.representative_edges)}")
    for c in report.claims():
        verdict = "pass" if c.passed else "fail"
        lines.append(f"claim\t{c.label}\tlhs={c.lhs}\trhs={c.rhs}\tresult={verdict}{note}")
    print("\n".join(lines))
    if report.bc4_free and not all(c.passed for c in report.claims()):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    from bergec4.bounds import HypothesisError, verify_chain

    h = _load(args.input)
    lines = _header("verify", h.digest())
    try:
        report = verify_chain(h)
    except HypothesisError as exc:
        lines.append(f"refusal\t{exc.reason}")
        if exc.witness is not None:
            lines.extend(_witness_lines(h, exc.witness))
        else:
            lines.append(f"detail\t{exc}")
        print("\n".join(lines))
        return EXIT_REFUSED
    lines.append(f"n\t{report.n}")
    lines.append(f"edge_count\t{report.edge_count}")
    for c in report.checks():
        verdict = "pass" if c.passed else "fail"
        lines.append(
            f"inequality\t{c.label}\tlhs={c.lhs}\trhs={c.rhs}\trelation={c.relation}\tresult={verdict}"
        )
    lines.append(f"upper_bound\t{report.upper_bound_n.decimal(6)}")
    print("\n".join(lines))
    return EXIT_OK if report.all_pass() else EXIT_CHECK_FAILED


def cmd_construct(args) -> int:
    from bergec4.construct import lower_bound_construction

    h = lower_bound_construction(args.q)
    lines = _header("construct", extra=[f"# q {args.q}"])
    lines.append(h.to_text().rstrip("\n"))
    print("\n".join(lines))
    return EXIT_OK


def cmd_random(args) -> int:
    from bergec4.construct import random_bc4free

    h = random_bc4free(args.n, args.m, args.seed)
    lines = _header("random", extra=[f"# n {args.n}", f"# m {args.m}", f"# seed {args.seed}"])
    lines.append(h.to_text().rstrip("\n"))
    print("\n".join(lines))
    return EXIT_OK


def cmd_search(args) -> int:
    from bergec4.search import check_table_args, ex_table, format_ex_table, format_stats

    # bad arguments, then an unwritable stats path, fail before any row is searched
    check_table_args(args.n_max, args.budget)
    if args.stats is None:
        results = ex_table(args.n_max, budget=args.budget)
    else:
        with open(args.stats, "w", encoding="utf-8") as fh:
            results = ex_table(args.n_max, budget=args.budget)
            fh.write(format_stats(results))
    lines = _header("search", extra=[f"# n-max {args.n_max}", f"# budget {args.budget}"])
    lines.append(format_ex_table(results).rstrip("\n"))
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main call, not at import.

    Parsing leaves it unchanged, so every later main call reuses it instead
    of paying about 0.8 ms to build it again.
    """
    parser = argparse.ArgumentParser(
        prog="bergec4",
        description="Analyze 3-uniform hypergraphs with respect to Berge 4-cycles.",
    )
    parser.add_argument("--version", action="version", version=f"bergec4 {bergec4.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shadow", help="2-shadow edge list and degree profile")
    p.add_argument("input")
    p.set_defaults(run=cmd_shadow)

    p = sub.add_parser("check", help="find a Berge cycle or report freeness")
    p.add_argument("input")
    p.add_argument("--length", type=int, default=4)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("blocks", help="block decomposition with classifications")
    p.add_argument("input")
    p.set_defaults(run=cmd_blocks)

    p = sub.add_parser("census", help="3-path / 4-cycle census and claim checks")
    p.add_argument("input")
    p.add_argument("--diagonal-scope", choices=("induced", "global"), default="induced")
    p.set_defaults(run=cmd_census)

    p = sub.add_parser("verify", help="verify the inequality chain")
    p.add_argument("input")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("construct", help="emit the cloned incidence construction")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("random", help="emit a seeded random BC4-free hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=cmd_random)

    p = sub.add_parser("search", help="exact extremal table")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--stats", metavar="FILE", help="write per-row search counts as JSON lines")
    p.set_defaults(run=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
