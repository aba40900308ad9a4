"""The benchmark's workloads: seeded inputs, one pass of CLI commands, output checks.

Every command goes through ``bergec4.cli.main(argv)`` in this process with
stdout and stderr captured. A workload generates its inputs from the
workload seed (``generate``), lists the commands of one pass (``ops``),
checks each command's output (``check``) and turns one pass's command
timings into its detail metrics (``pass_detail``). bergec4 is imported from
this checkout's ``src/`` only, and only when ``load_bergec4`` is called, so
that the import can be timed as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
GOLDEN = ROOT / "tests" / "golden" / "ex_table_n6.tsv"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, no golden file, bad input)."""


def load_bergec4():
    """Import bergec4 from this checkout's src/ and nowhere else."""
    package = SRC / "bergec4"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no bergec4 package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bergec4
    import bergec4.cli  # noqa: F401  (the entry point every pass drives)

    if Path(bergec4.__file__).resolve().parent != package.resolve():
        raise SetupError(f"bergec4 was imported from {bergec4.__file__}, not from {package}")
    return bergec4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass."""

    label: str  # span label and report key, e.g. "census q16"
    kind: str  # command class summed by the detail metrics, e.g. "census"
    argv: tuple[str, ...]
    pin: str | None = None  # key of the pinned exit code and stdout digest


@dataclass
class Record:
    op: Op
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None  # traceback when the command raised


def run_op(op: Op, tracer=None) -> Record:
    """Run one command in-process; the timed region is ``cli.main`` alone."""
    cli = sys.modules["bergec4.cli"]
    if tracer is not None:
        tracer.set_label(op.label)
    out, err = io.StringIO(), io.StringIO()
    rc: int | None = None
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Record(op, rc, out.getvalue(), seconds, error)


def run_pass(ops, tracer=None) -> tuple[float, list[Record]]:
    """Run every command of a pass; returns (wall seconds, records)."""
    start = time.perf_counter()
    records = [run_op(op, tracer) for op in ops]
    return time.perf_counter() - start, records


def _load_pins(workload: str) -> dict:
    try:
        return json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
    except FileNotFoundError:
        raise SetupError(f"missing pinned outputs {PINS}") from None


class Workload:
    name = ""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def generate(self, seed: int, workdir: Path) -> None:
        """Build the inputs for ``seed`` under ``workdir`` and fill ``self.ops``."""
        raise NotImplementedError

    def warm_up(self) -> list[tuple[str, str | None]]:
        """One untimed pass; returns (label, error or None) per checked operation."""
        _, records = run_pass(self.ops)
        return [(r.op.label, self.check(r)) for r in records]

    def check(self, rec: Record) -> str | None:
        """None when the output is correct, else what is wrong with it."""
        raise NotImplementedError

    def pass_detail(self, records: list[Record]) -> dict[str, float]:
        """Workload-specific metrics of one pass."""
        raise NotImplementedError

    @staticmethod
    def _ran(rec: Record) -> str | None:
        if rec.error is not None:
            return "raised " + rec.error.strip().splitlines()[-1]
        return None

    def _check_pin(self, rec: Record, pins: dict) -> str | None:
        expected = pins.get(rec.op.pin)
        if expected is None:
            return f"no pinned output for {rec.op.pin!r}"
        if rec.rc != expected["exit"]:
            return f"exit {rec.rc}, pinned {expected['exit']}"
        if sha256(rec.stdout) != expected["sha256"]:
            return "stdout differs from the pinned digest"
        return None


class DenseAnalysis(Workload):
    """Analysis commands on the cloned PG(2,q) constructions, plus one cyclic input.

    q16-cyclic is the q=16 construction plus the point triple
    {PIVOT, a, b}; a and b are drawn by ``random.Random(variant)`` from the
    points above PIVOT, with variant = seed mod VARIANTS so that every
    output stays pinned. Any two points of a projective plane share a line
    L, so {PIVOT, a} closes a Berge C4 with the three construction edges on
    L's vertex pair; every such cycle has least vertex PIVOT, which fixes
    how far the detector scans before it finds a witness.
    """

    name = "dense-analysis"
    ORDERS = (7, 11, 16)
    COMMANDS = ("check", "census", "verify", "blocks")
    VARIANTS = 16
    PIVOT = 91
    POINTS = 16 * 16 + 16 + 1  # the construction keeps point ids 0..POINTS-1

    def generate(self, seed: int, workdir: Path) -> None:
        from bergec4.construct import lower_bound_construction
        from bergec4.hypergraph import Hypergraph

        self.pins = _load_pins(self.name)
        graphs = {f"q{q}": lower_bound_construction(q) for q in self.ORDERS}
        self.variant = seed % self.VARIANTS
        base = graphs["q16"]
        graphs["q16-cyclic"] = Hypergraph(base.n, base.edges + (self.cyclic_triple(base, self.variant),))
        self.ops = [Op("construct q16", "construct", ("construct", "--q", "16"), "construct q16")]
        for name, h in graphs.items():
            path = workdir / f"{name}.txt"
            path.write_text(h.to_text(), encoding="utf-8")
            suffix = f" v{self.variant}" if name == "q16-cyclic" else ""
            for cmd in self.COMMANDS:
                self.ops.append(Op(f"{cmd} {name}", cmd, (cmd, str(path)), f"{cmd} {name}{suffix}"))

    @classmethod
    def cyclic_triple(cls, base, variant: int) -> tuple[int, int, int]:
        """The extra triple of q16-cyclic, confirmed to carry a Berge C4."""
        from bergec4.search import _four_edges_support_c4

        rng = random.Random(variant)
        a, b = sorted(rng.sample(range(cls.PIVOT + 1, cls.POINTS), 2))
        triple = (cls.PIVOT, a, b)
        if triple in base.edge_set:
            raise SetupError(f"{triple} is already an edge")
        # e1 through PIVOT and e2 through a share their line pair; e3 is a third edge on it
        for e1 in (e for e in base.edges if cls.PIVOT in e):
            for e2 in (e for e in base.edges if a in e):
                pair = set(e1) & set(e2)
                if len(pair) != 2:
                    continue
                e3 = next((e for e in base.edges if pair < set(e) and e not in (e1, e2)), None)
                if e3 is not None and _four_edges_support_c4((triple, e1, e2, e3)):
                    return triple
        raise SetupError(f"triple {triple} carries no Berge C4 with the q=16 construction")

    def check(self, rec: Record) -> str | None:
        return self._ran(rec) or self._check_pin(rec, self.pins)

    def pass_detail(self, records: list[Record]) -> dict[str, float]:
        totals = {"check": 0.0, "census": 0.0, "verify": 0.0, "construct": 0.0}
        for r in records:
            if r.op.kind in totals:
                totals[r.op.kind] += r.seconds
        return {f"{kind}_s": seconds for kind, seconds in totals.items()}


class Greedy(Workload):
    """``random --n 80 --m C(80,3)`` for three seeds drawn from the workload seed.

    The target edge count C(80,3) is never reached, so every triple is
    tried and the builder's rejections dominate.
    """

    name = "greedy"
    N = 80
    M = comb(80, 3)
    RUNS = 3

    def generate(self, seed: int, workdir: Path) -> None:
        self.pins = _load_pins(self.name)
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 31) for _ in range(self.RUNS)]
        self.ops = [
            Op(f"random seed={s}", "random", ("random", "--n", str(self.N), "--m", str(self.M), "--seed", str(s)), f"random {s}")
            for s in seeds
        ]

    def check(self, rec: Record) -> str | None:
        from bergec4.berge import find_berge_cycle
        from bergec4.hypergraph import Hypergraph, HypergraphError

        failure = self._ran(rec)
        if failure:
            return failure
        if rec.rc != 0:
            return f"exit {rec.rc}"
        try:
            h = Hypergraph.from_text(rec.stdout)
        except HypergraphError as exc:
            return f"output does not parse: {exc}"
        if h.n != self.N or h.edge_count == 0:
            return f"output has n={h.n}, m={h.edge_count}"
        if find_berge_cycle(h, 4) is not None:
            return "output carries a Berge C4"
        if rec.op.pin in self.pins:
            return self._check_pin(rec, self.pins)
        return None

    def pass_detail(self, records: list[Record]) -> dict[str, float]:
        seconds = sum(r.seconds for r in records if r.op.kind == "random")
        return {"triples_per_s": len(records) * self.M / seconds}


class Search(Workload):
    """``search --n-max 7`` (all rows optimal), then ``search --n-max 8`` at the default budget.

    The inputs are the n values alone, so the seed changes nothing here.
    """

    name = "search"

    def generate(self, seed: int, workdir: Path) -> None:
        from bergec4.bounds import upper_bound

        if not GOLDEN.is_file():
            raise SetupError(f"missing golden table {GOLDEN}")
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        self.header, self.golden = lines[0], {int(l.split("\t")[0]): l for l in lines[1:]}
        self.cap = {n: upper_bound(n).floor() for n in range(3, 9)}
        self.tables: dict[int, str] = {}
        self.ops = [
            Op(f"search n-max {n}", f"search{n}", ("search", "--n-max", str(n))) for n in (7, 8)
        ]

    def warm_up(self) -> list[tuple[str, str | None]]:
        """Run ``ex_table`` directly so that each witness can be confirmed.

        The tables of these results are what every later CLI output must print.
        """
        from bergec4.search import ex_table, format_ex_table

        outcome = []
        for n_max in (7, 8):
            label = f"ex_table({n_max}) witnesses"
            try:
                results = ex_table(n_max)
            except Exception:
                outcome.append((label, "raised " + traceback.format_exc().strip().splitlines()[-1]))
                continue
            self.tables[n_max] = format_ex_table(results)
            outcome.append((label, self._witness_error(results)))
        return outcome

    @staticmethod
    def _witness_error(results) -> str | None:
        """Each witness must be BC4-free by the direct 4-edge test, independent of the detector."""
        from bergec4.search import _four_edges_support_c4

        for r in results:
            w = r.witness
            if w.n != r.n or w.edge_count != r.max_edges:
                return f"n={r.n}: witness has n={w.n}, m={w.edge_count}, row says {r.max_edges}"
            for quad in combinations(w.edges, 4):
                if _four_edges_support_c4(quad):
                    return f"n={r.n}: witness edges {quad} carry a Berge C4"
        return None

    def check(self, rec: Record) -> str | None:
        failure = self._ran(rec)
        if failure:
            return failure
        if rec.rc != 0:
            return f"exit {rec.rc}"
        n_max = int(rec.op.argv[-1])
        lines = [l for l in rec.stdout.splitlines() if l and not l.startswith("#")]
        if not lines or lines[0] != self.header:
            return "missing table header"
        rows = {}
        for line in lines[1:]:
            fields = line.split("\t")
            rows[int(fields[0])] = (int(fields[1]), fields[2] == "true", line)
        if sorted(rows) != list(range(3, n_max + 1)):
            return f"rows {sorted(rows)}"
        for n, (max_edges, _, line) in rows.items():
            if n in self.golden and line != self.golden[n]:
                return f"row n={n} differs from the golden table"
            if max_edges > self.cap[n]:
                return f"row n={n}: {max_edges} edges exceed floor(upper_bound) = {self.cap[n]}"
        if rows[7][:2] != (6, True):
            return f"row n=7 is {rows[7][:2]}, expected (6, optimal)"
        if n_max == 8 and rows[8][0] < rows[7][0]:
            return "row n=8 is below row n=7"
        table = "\n".join(lines) + "\n"
        if self.tables.get(n_max) is not None and table != self.tables[n_max]:
            return "table differs from the witnessed ex_table results"
        return None

    def pass_detail(self, records: list[Record]) -> dict[str, float]:
        by_kind = {r.op.kind: r for r in records}
        rows = [l.split("\t") for l in by_kind["search8"].stdout.splitlines() if l[:1].isdigit()]
        return {
            "time_to_optimal_s": by_kind["search7"].seconds,
            "optimal_rows": sum(1 for fields in rows if fields[2:3] == ["true"]),
        }


WORKLOADS = {w.name: w for w in (DenseAnalysis, Greedy, Search)}


def get(name: str) -> Workload:
    return WORKLOADS[name]()


def timed_setup(name: str, seed: int, workdir: Path) -> tuple[Workload, float]:
    """Import bergec4 (when not yet imported) and generate the inputs; returns the seconds."""
    start = time.perf_counter()
    load_bergec4()
    workload = get(name)
    workload.generate(seed, workdir)
    return workload, time.perf_counter() - start
