"""Command-line front end.

Five subcommands: ``verify`` (the randomised relation gate, exit 1 on any
violation), ``profile`` (per-position predictability of one model),
``typology`` (the bundled verb-placement table), ``gen`` (model generators)
and ``sample`` (Monte Carlo draws).  All information values are nats in CSV
output; ``--bits`` converts printed summaries only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .distributions import (
    HEAD,
    FactoredModel,
    HarmoniaError,
    JointSizeError,
    ValidationError,
    check_factorization,
    dep,
    dep_range,
)
from .estimation import check_stage, next_element_score, sample
from .generators import (
    ModelSpec,
    copy_model,
    correlated_pair_counterexample,
    independent_model,
    random_model,
)
from .information import DEFAULT_TOLERANCE, mi_of, mutual_information, to_bits
from .modelio import load_any, load_model, save_joint, save_model
from .placement import (
    HEAD_MASK,
    Objective,
    Placement,
    deps_mask,
    optimal_head_position,
    placement_profile,
)
from .sweep import (
    RunConfig,
    checks_for_joint,
    run_sweep,
    theorem_battery,
    write_report,
    write_witnesses,
)
from .typology import load_typology, typology_report


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _fmt(value: float, bits: bool) -> str:
    if bits:
        return f"{value:.6f} nats ({to_bits(value):.6f} bits)"
    return f"{value:.6f} nats"


def _open_out(path: str | None):
    """The output file at ``path``, or stdout (left open) when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's settings (or the defaults), then the command line's."""
    config = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except json.JSONDecodeError as err:
                raise ValidationError(
                    f"{args.config}: not valid JSON (line {err.lineno}): {err.msg}"
                ) from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
        try:
            config = RunConfig.from_dict(loaded)
        except ValidationError as err:
            raise ValidationError(f"{args.config}: {err}") from None
    flags = {f.name: value for f in fields(RunConfig)
             if (value := getattr(args, f.name)) is not None}
    return replace(config, **flags)


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)

    if args.input:
        loaded = load_any(args.input)
        model_id = Path(args.input).stem
        if isinstance(loaded, FactoredModel):
            pairs = theorem_battery(loaded, tol=config.tolerance, aggregate=config.aggregate)
        else:
            pairs = checks_for_joint(loaded, config.tolerance)
        failures = sum(not check.holds for _, check in pairs)
        with _open_out(config.out) as out:
            write_report(((model_id, theorem, check) for theorem, check in pairs), out,
                         timestamp=config.timestamp)
        print(
            f"checked 1 input ({model_id}): {len(pairs)} relations, "
            f"{failures} violation(s)",
            file=sys.stderr,
        )
        return 0 if not failures else 1

    result = run_sweep(config)
    with _open_out(config.out) as out:
        write_report(result.rows, out, timestamp=config.timestamp)
    if result.failures:
        directory = args.witness_dir or (str(Path(config.out).parent) if config.out else ".")
        written = write_witnesses(result, directory)
        print(
            f"FAIL: {len(result.failures)} of {len(result.rows)} relation checks "
            f"failed across {config.model_count} models; witnesses: "
            + ", ".join(str(p) for p in written),
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {config.model_count} models, {len(result.rows)} relation checks, "
        f"0 failures in {result.elapsed_seconds:.1f}s",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    order = args.order or ()
    result = optimal_head_position(
        model,
        args.objective,
        k=args.k,
        dependent_order=order,
        aggregate=args.aggregate,
        tol=args.tol,
    )
    # Every position's rows before any output, so that a refused marginal writes nothing.
    profiles = [placement_profile(model, Placement(model.n, pos, order))
                for pos in range(1, model.n + 2)]
    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("head_position", "k", "measure", "target", "nats"))
        for pos, rows in enumerate(profiles, start=1):
            for row in rows:
                writer.writerow((pos, row.k, "remainder", "", repr(row.remainder)))
                for variable, value in row.pending_elements:
                    writer.writerow((pos, row.k, "element", variable.name, repr(value)))
    best = ", ".join(str(p) for p in result.best_positions)
    score = max(result.scores)
    print(
        f"objective {args.objective}: best head position(s) {best} "
        f"at {_fmt(score, args.bits)}",
        file=sys.stderr,
    )
    for position, value in enumerate(result.scores, start=1):
        print(f"  position {position}: {_fmt(value, args.bits)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# typology
# ---------------------------------------------------------------------------


def cmd_typology(args: argparse.Namespace) -> int:
    rows = load_typology(args.data)
    groups = typology_report(rows)
    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ("source", "unit", "order_position", "frequency", "percentage",
             "recomputed_percentage", "consistent")
        )
        for group in groups:
            for row, recomputed, ok in zip(group.rows, group.recomputed, group.consistent):
                writer.writerow(
                    (row.source, row.unit, row.order_position, row.frequency,
                     row.percentage, f"{recomputed:.4f}", "true" if ok else "false")
                )
    for group in groups:
        trend = "increasing" if group.counts_monotonic else "NOT increasing"
        print(
            f"{group.source}/{group.unit}: total {group.total}, "
            f"counts {'/'.join(str(r.frequency) for r in group.rows)} ({trend} with later head position)",
            file=sys.stderr,
        )
        for row, recomputed, ok in zip(group.rows, group.recomputed, group.consistent):
            flag = "" if ok else "  <- stored percentage disagrees with counts"
            print(
                f"  position {row.order_position}: {row.frequency} "
                f"({row.percentage}% stored, {recomputed:.2f}% recomputed){flag}",
                file=sys.stderr,
            )
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _print_model_summary(model: FactoredModel, bits: bool) -> None:
    """I(head; dep i) and I(head; all dependents), read off the model's factors;
    past the cell cap the last line names the cap instead of a value."""
    for i in range(1, model.n + 1):
        value = mi_of(model, HEAD_MASK, 1 << i)
        print(f"I(head; dep{i}) = {_fmt(value, bits)}", file=sys.stderr)
    try:
        total = _fmt(mi_of(model, HEAD_MASK, deps_mask(1, model.n)), bits)
    except JointSizeError as err:
        total = f"not computed ({err})"
    print(f"I(head; all dependents) = {total}", file=sys.stderr)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "copy":
        model = copy_model(n=args.n, size=args.size, noise=args.noise)
        meta = {"generator": "copy", "n": args.n, "size": args.size, "noise": args.noise}
    elif args.kind == "random":
        spec = ModelSpec(
            n=args.n,
            head_size=args.head_size,
            dep_sizes=args.dep_size,
            concentration=args.concentration,
            seed=args.seed,
            identical_channels=args.identical_channels,
        )
        model = random_model(spec)
        meta = {"generator": "random", **asdict(spec)}
    elif args.kind == "independent":
        model = independent_model(n=args.n, sizes=args.size)
        meta = {"generator": "independent", "n": args.n, "size": args.size}
    else:  # counterexample
        joint = correlated_pair_counterexample()
        violation = check_factorization(joint)
        save_joint(
            joint,
            args.out,
            metadata={
                "generator": "counterexample",
                "factored": False,
                "factorization_max_violation": violation,
            },
        )
        print(f"wrote {args.out} (non-factored joint)", file=sys.stderr)
        total = mutual_information(joint, HEAD, dep_range(1, 2))
        print(f"I(head; dependents) = {_fmt(total, args.bits)}", file=sys.stderr)
        print(
            "I(dep1; head+dep2) = "
            f"{_fmt(mutual_information(joint, dep(1), (HEAD, dep(2))), args.bits)}",
            file=sys.stderr,
        )
        print(f"max factorization violation = {violation:.6f}", file=sys.stderr)
        return 0
    save_model(model, args.out, metadata=meta)
    print(f"wrote {args.out}", file=sys.stderr)
    _print_model_summary(model, args.bits)
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    placement = Placement(
        n=model.n, head_position=args.head_position, dependent_order=args.order or ()
    )
    if args.score_k is not None:
        check_stage(args.score_k, model.n)
    samples = sample(model, placement, count=args.count, seed=args.seed)
    with _open_out(args.out) as out:
        samples.to_csv(out, labels=args.labels)
    if args.out:
        print(f"wrote {samples.count} rows to {args.out}", file=sys.stderr)
    if args.score_k is not None:
        score = next_element_score(model, placement, args.score_k, samples=samples)
        print(
            f"next element after k={args.score_k}: {score.target.name}; "
            f"exact Bayes accuracy {score.exact_bayes_accuracy:.4f}, "
            f"empirical-rule accuracy {score.empirical_accuracy:.4f}; "
            f"exact MI {_fmt(score.exact_mi, args.bits)}, "
            f"plug-in MI {_fmt(score.plug_in_mi, args.bits)}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia",
        description="Exact information-theoretic analysis of head placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the randomised relation checks")
    p_verify.add_argument("--config", help="JSON file with RunConfig fields")
    # Each setting's destination is the RunConfig field it sets.
    p_verify.add_argument("--models", dest="sweep_size", type=int,
                          help="models per (n, head size, dep size) cell")
    p_verify.add_argument("--n", dest="n_values", type=_int_list, help="comma-separated n values")
    p_verify.add_argument("--head-sizes", type=_int_list, default=None)
    p_verify.add_argument("--dep-sizes", type=_int_list, default=None)
    p_verify.add_argument("--concentration", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", dest="tolerance", type=float, help="tolerance in nats")
    p_verify.add_argument("--aggregate", choices=("min", "mean"), default=None)
    p_verify.add_argument("--out", default=None, help="report CSV path (default stdout)")
    p_verify.add_argument("--no-timestamp", dest="timestamp", action="store_false", default=None)
    p_verify.add_argument("--workers", type=int, default=None,
                          help="parallel workers (default 1, capped by the CPU count)")
    p_verify.add_argument("--input", default=None,
                          help="check one model/joint file instead of sweeping")
    p_verify.add_argument("--witness-dir", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_profile = sub.add_parser("profile", help="stage-by-stage predictability of a model")
    p_profile.add_argument("model")
    p_profile.add_argument("--objective", choices=[o.value for o in Objective],
                           default="head")
    p_profile.add_argument("--k", type=int, default=None, help="stage for the remainder objective")
    p_profile.add_argument("--order", type=_int_list, default=None)
    p_profile.add_argument("--aggregate", choices=("min", "mean"), default="min")
    p_profile.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p_profile.add_argument("--out", default=None)
    p_profile.add_argument("--bits", action="store_true", help="also print bits")
    p_profile.set_defaults(func=cmd_profile)

    p_typ = sub.add_parser("typology", help="verb-placement frequency table")
    p_typ.add_argument("data", nargs="?", default=None, help="CSV path (default: bundled)")
    p_typ.add_argument("--out", default=None)
    p_typ.set_defaults(func=cmd_typology)

    p_gen = sub.add_parser("gen", help="generate a model or counterexample file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_copy = gen_sub.add_parser("copy", help="noisy-copy channels from a uniform head")
    g_copy.add_argument("--n", type=int, required=True)
    g_copy.add_argument("--size", type=int, default=2)
    g_copy.add_argument("--noise", type=float, default=0.0)
    g_random = gen_sub.add_parser("random", help="seeded Dirichlet tables")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--head-size", type=int, default=2)
    g_random.add_argument("--dep-size", type=int, default=2)
    g_random.add_argument("--concentration", type=float, default=1.0)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--identical-channels", action="store_true")
    g_independent = gen_sub.add_parser("independent", help="no dependence anywhere")
    g_independent.add_argument("--n", type=int, required=True)
    g_independent.add_argument("--size", type=int, default=2)
    g_counter = gen_sub.add_parser(
        "counterexample", help="non-factored joint violating the remainder relations"
    )
    for g in (g_copy, g_random, g_independent, g_counter):
        g.add_argument("--out", required=True)
        g.add_argument("--bits", action="store_true")
        g.set_defaults(func=cmd_gen)

    p_sample = sub.add_parser("sample", help="draw i.i.d. sequences from a model")
    p_sample.add_argument("model")
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--head-position", type=int, default=1)
    p_sample.add_argument("--order", type=_int_list, default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.add_argument("--labels", action="store_true", help="write labels, not indices")
    p_sample.add_argument("--score-k", type=int, default=None,
                          help="also score next-element prediction at stage k")
    p_sample.add_argument("--bits", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarmoniaError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
