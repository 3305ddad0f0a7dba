"""Checks of what a round of each workload wrote, against ``oracle.py``.

Each check returns an ``Outcome``: how many operations the round attempted,
how many the program itself reported as failed (a relation that does not
hold, a command that exits non-zero), and every way the output disagrees
with the oracle or with a property the paper proves (``problems``).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import workloads as wl

#: Relation families the oracle recomputes side by side.
ORACLE_THEOREMS = ("remainder", "pending", "irrelevance", "harmony")

#: Largest |program - oracle| accepted for a value in nats.  The two paths
#: differ only in summation order, which moves the result by ~1e-15.
NATS_TOL = 1e-10

#: Tolerance of the relations themselves (``DEFAULT_TOLERANCE`` of harmonia).
RELATION_TOL = 1e-9

REPORT_HEADER = ["model_id", "theorem", "relation", "lhs_nats", "rhs_nats", "slack",
                 "holds", "equality_diagnosis"]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def read_report(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if header != REPORT_HEADER:
        raise ValueError(f"{path.name}: header {header}")
    return [dict(zip(header, row)) for row in reader]


def count_rows(rows: list[dict[str, str]]) -> Outcome:
    return Outcome(attempted=len(rows), failed=sum(r["holds"] != "true" for r in rows))


def check_rows(where: str, rows: list[dict[str, str]], n: int,
               e: oracle.Entropies) -> list[str]:
    """Recompute both sides of every oracle-family row of one model."""
    problems = []
    for r in rows:
        if r["theorem"] not in ORACLE_THEOREMS:
            continue
        try:
            lhs, rhs, sense = oracle.relation_sides(r["relation"], n, e)
        except KeyError:
            problems.append(f"{where}: relation {r['relation']!r} unknown to the oracle")
            continue
        got = float(r["lhs_nats"]), float(r["rhs_nats"])
        if abs(got[0] - lhs) > NATS_TOL or abs(got[1] - rhs) > NATS_TOL:
            problems.append(f"{where}: {r['relation']}: program {got}, oracle {(lhs, rhs)}")
        if not oracle.satisfies(lhs, rhs, sense, RELATION_TOL):
            problems.append(f"{where}: {r['relation']}: oracle sides {lhs!r} {sense} {rhs!r} fail")
    return problems


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def oracle_models(seed: int) -> list[str]:
    """One model per grid cell and regime, picked by the seed."""
    ids = wl.sweep_model_ids()
    per_cell = wl.SWEEP_SIZE
    picked = []
    for cell in range(len(ids) // per_cell):
        pair = (seed + cell) % (per_cell // 2)
        picked += [ids[cell * per_cell + 2 * pair], ids[cell * per_cell + 2 * pair + 1]]
    return picked


def check_sweep(directory: Path, seed: int) -> Outcome:
    from harmonia.generators import random_model
    from harmonia.sweep import RunConfig, sweep_tasks

    rows = read_report(directory / "report.csv")
    out = count_rows(rows)
    by_model: dict[str, list[dict[str, str]]] = {}
    for r in rows:
        by_model.setdefault(r["model_id"], []).append(r)
    expected = wl.sweep_model_ids()
    if sorted(by_model) != sorted(expected):
        out.problems.append(
            f"report covers {len(by_model)} models, the default grid has {len(expected)}")
    specs = {t.model_id: t.spec for t in sweep_tasks(RunConfig(seed=seed))}
    for model_id in oracle_models(seed):
        model = random_model(specs[model_id])
        e = oracle.Entropies(oracle.joint(model.head_prior, model.cond_tables))
        model_rows = by_model.get(model_id, [])
        if not any(r["theorem"] in ORACLE_THEOREMS for r in model_rows):
            out.problems.append(f"{model_id}: no row the oracle can check")
        out.problems += check_rows(model_id, model_rows, model.n, e)
    return out


# ---------------------------------------------------------------------------
# exact-n8
# ---------------------------------------------------------------------------

_BEST = re.compile(r"best head position\(s\) ([\d, ]+) at")


def check_exact(directory: Path, codes: list[int], messages: list[str]) -> Outcome:
    n = wl.EXACT_N
    out = Outcome()
    entropies = {}
    for code, name in zip(codes, ("identical", "per-slot")):
        rows = read_report(directory / f"{name}.csv")
        counted = count_rows(rows)
        if code != 0 and counted.failed == 0:
            out.problems.append(f"verify --input {name}.json exited {code}")
        out.add(counted)
        prior, tables = wl.read_model(directory / f"{name}.json")
        e = entropies[name] = oracle.Entropies(oracle.joint(prior, tables))
        # I(head; dep j) and I(head; deps) sit on these rows.
        relations = {r["relation"] for r in rows}
        needed = {"remainder k=1 (head first)", "pending part1 k=1 j=1"}
        needed |= {f"irrelevance k=1 j={j}" for j in range(2, n + 1)}
        if not needed <= relations:
            out.problems.append(f"{name}: rows missing: {sorted(needed - relations)}")
        out.problems += check_rows(name, rows, n, e)

    out.attempted += 1  # the profile command
    out.failed += codes[2] != 0
    scores: dict[int, float] = {}
    with open(directory / "profile.csv", newline="", encoding="utf-8") as f:
        for r in csv.DictReader(f):
            position, k = int(r["head_position"]), int(r["k"])
            if r["measure"] == "element" and r["target"] == "head" and k == position - 1:
                scores[position] = float(r["nats"])
    expected = oracle.head_scores(entropies["identical"], n)
    if sorted(scores) != list(range(1, n + 2)):
        out.problems.append(f"profile: head scores for positions {sorted(scores)}")
    else:
        got = [scores[p] for p in range(1, n + 2)]
        if any(b < a - RELATION_TOL for a, b in zip(got, got[1:])):
            out.problems.append(f"profile: head predictability decreases: {got}")
        if any(abs(g - x) > NATS_TOL for g, x in zip(got, expected)):
            out.problems.append(f"profile: program {got}, oracle {expected}")
    best = _BEST.search(messages[2])
    if best is None or n + 1 not in [int(p) for p in best.group(1).split(",")]:
        out.problems.append(f"profile: best positions do not contain {n + 1}: {messages[2]!r}")
    return out


# ---------------------------------------------------------------------------
# sample-n7
# ---------------------------------------------------------------------------

_SCORE = re.compile(
    r"exact Bayes accuracy ([\d.]+), empirical-rule accuracy ([\d.]+); "
    r"exact MI ([\d.]+) nats, plug-in MI ([\d.]+) nats"
)


def read_samples(path: Path, columns: int) -> tuple[list[str], np.ndarray]:
    """Header and value matrix of a sample CSV of one-digit values, as
    ``csv.writer`` writes it (``\\r\\n`` line ends)."""
    data = path.read_bytes()
    header, _, body = data.partition(b"\r\n")
    width = 2 * columns + 1
    if len(body) % width:
        raise ValueError(f"{path.name}: rows are not {width} bytes each")
    cells = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
    digits = cells[:, 0 : 2 * columns - 1 : 2] - ord("0")
    if (
        (cells[:, 1 : 2 * columns - 2 : 2] != ord(",")).any()
        or (cells[:, -2] != ord("\r")).any()
        or (cells[:, -1] != ord("\n")).any()
        or (digits > 9).any()
    ):
        raise ValueError(f"{path.name}: a row is not {columns} comma-separated digits")
    return header.decode("ascii").split(","), digits


def check_sample(directory: Path, codes: list[int], messages: list[str]) -> Outcome:
    n, size, k = wl.SAMPLE_N, wl.SAMPLE_SIZE, wl.SAMPLE_SCORE_K
    out = Outcome(attempted=1, failed=int(codes[0] != 0))
    prior, tables = wl.read_model(directory / "model.json")
    head_at = wl.SAMPLE_HEAD_POSITION - 1
    order = list(range(1, head_at + 1)) + [0] + list(range(head_at + 1, n + 1))
    names = [f"dep{a}" if a else "head" for a in order]
    p = oracle.joint(prior, tables).transpose(order)  # production order

    header, rows = read_samples(directory / "samples.csv", n + 1)
    if header != names:
        out.problems.append(f"samples: columns {header}, expected {names}")
    count = rows.shape[0]
    if count != wl.SAMPLE_COUNT:
        out.problems.append(f"samples: {count} rows, expected {wl.SAMPLE_COUNT}")
    if (rows >= size).any():
        out.problems.append(f"samples: a value outside 0..{size - 1}")
        return out
    for col, name in enumerate(names):
        exact = p.sum(axis=tuple(a for a in range(n + 1) if a != col))
        freq = np.bincount(rows[:, col], minlength=size) / count
        for value, (f, q) in enumerate(zip(freq, exact)):
            if abs(f - q) > oracle.frequency_bound(q, count):
                out.problems.append(f"samples: P({name}={value}) is {q:.6f}, "
                                    f"frequency {f:.6f} is outside 6 standard deviations")

    m = p.sum(axis=tuple(range(k + 1, n + 1))) if k < n else p
    counts = np.bincount(
        np.ravel_multi_index(tuple(rows[:, c] for c in range(k + 1)), m.shape),
        minlength=m.size,
    ).reshape(m.shape)
    bayes = oracle.bayes_accuracy(m)
    rule = oracle.rule_accuracy(m, counts)
    prefix, target = range(k), {k}
    exact_mi = oracle.Entropies(m).mi(prefix, target)
    plug_in = oracle.Entropies(counts / count).mi(prefix, target)
    if rule > bayes + 1e-12:
        out.problems.append(f"samples: rule accuracy {rule} beats Bayes accuracy {bayes}")

    printed = _SCORE.search(messages[0])
    if printed is None:
        out.problems.append(f"samples: no score line in {messages[0]!r}")
        return out
    got = [float(g) for g in printed.groups()]
    # The command prints accuracies with 4 decimals and nats with 6.
    for label, value, want, half_ulp in (
        ("exact Bayes accuracy", got[0], bayes, 5e-5),
        ("empirical-rule accuracy", got[1], rule, 5e-5),
        ("exact MI", got[2], exact_mi, 5e-7),
        ("plug-in MI", got[3], plug_in, 5e-7),
    ):
        if abs(value - want) > half_ulp + 1e-9:
            out.problems.append(f"samples: {label} printed {value}, oracle {want!r}")
    if got[1] > got[0]:
        out.problems.append(f"samples: printed rule accuracy {got[1]} beats Bayes {got[0]}")
    return out


def check(workload: str, directory: Path, seed: int, codes: list[int],
          messages: list[str]) -> Outcome:
    if workload in ("sweep-serial", "sweep-workers"):
        out = check_sweep(directory, seed)
        if codes[0] != 0 and out.failed == 0:
            out.problems.append(f"verify exited {codes[0]} with every row holding")
        return out
    if workload == "exact-n8":
        return check_exact(directory, codes, messages)
    return check_sample(directory, codes, messages)
