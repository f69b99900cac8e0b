"""Command-line surface: enumerate, maximal, decompose, badness, sweep, kakeya, verify.

Exit codes: 0 success, 1 invariant failure, 2 usage error.  Identical
arguments (and seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

from .badness import ShrinkHalvingError, badness_table, shrink_iterate
from .calibration import DEFAULT_LAMBDA0
from .dyadic import DyadicRational
from .family import FamilyParams, RectangleFamily, enumerate_family
from .geometry import GridSpec, spec_from_offstep
from .grids import OneVarField, parse_field, parse_grid, render_field, render_grid
from .instances import (
    cascade_field,
    constant_field,
    identity_field,
    make_kakeya_bundle,
    random_field,
    random_grid,
)
from .maximal import linearize, maximal_apply
from .stopping_time import decomposition_to_json, run_generations
from .sweeps import ExperimentConfig, kakeya_grid_m, sweep_delta, sweep_logn, sweep_lp
from .verify import run_verify


def _dyadic(text: str) -> DyadicRational:
    """One flag value: n/2^e, an integer, or n/d with d a positive power of two."""
    frac = re.fullmatch(r"(-?\d+)/(\d+)", text.strip())
    if frac is None:
        return DyadicRational.parse(text)
    num, den = map(int, frac.groups())
    if den < 1 or den & (den - 1):
        raise ValueError(f"{frac[0]!r} is not dyadic")
    return DyadicRational(num, den.bit_length() - 1)


def _parse_deltas(text: str) -> tuple[DyadicRational, ...]:
    return tuple(_dyadic(tok) for tok in text.split(","))


def _field_for(spec: GridSpec, kind: str, seed: int | None):
    if kind == "identity":
        return identity_field(spec)
    if kind == "cascade":
        return cascade_field(spec)
    if kind == "random":
        return random_field(spec, random.Random(0 if seed is None else seed))
    if kind.startswith("const:"):
        return constant_field(spec, _dyadic(kind.split(":", 1)[1]))
    raise ValueError(f"unknown field kind {kind!r}")


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_defaults(path: str) -> dict[str, str]:
    """Read key=value defaults from a --config file; flags override them.  A
    key given twice, in either spelling (`max_gen`, `max-gen`), is an error."""
    out = {}
    seen = set()
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("_", "-")
        if name in seen:
            raise ValueError(f"duplicate key '{key}'")
        seen.add(name)
        out[key] = value
    return out


_FLAGS = {
    "m": dict(type=int, default=None),
    "mw": dict(type=int, default=None),
    "delta": dict(type=str, default=None),
    "lambda0": dict(type=str, default=None),
    "offstep": dict(choices=["w", "w2"], default="w"),
    "seed": dict(type=int, default=0),
    "field": dict(type=str, default="identity"),
    "iters": dict(type=int, default=1),
    "max-gen": dict(type=int, default=64),
    "depth": dict(type=int, default=None),
}
_FAMILY_FLAGS = ("m", "mw", "delta", "offstep", "seed", "field")
_FAMILY_M = 4  # the family commands' grid exponent without --m
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _add_flags(p: argparse.ArgumentParser, names, defaults: dict) -> None:
    """The shared flags a command reads, --out and --config, then the defaults
    (last, as set_defaults reaches only the arguments already added)."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    return _parser({})


def _parser(defaults: dict) -> argparse.ArgumentParser:
    """The command parser; defaults (by argument name) replace the built-in ones."""
    parser = argparse.ArgumentParser(
        prog="dirmax",
        description="Exact directional maximal operator lab on the dyadic unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # enumerate and maximal read --seed only for --field random: no --seed
    # default there, so a seed that no field reads is seen and rejected
    p = sub.add_parser("enumerate", help="enumerate a density family and export it")
    _add_flags(p, _FAMILY_FLAGS, {"seed": None, **defaults})

    p = sub.add_parser("maximal", help="apply the maximal operator to a grid file")
    p.add_argument("--grid", type=str, required=True)
    p.add_argument("--field-file", type=str, default=None)
    # no --field default here, so a --field beside --field-file is seen and rejected
    _add_flags(p, ("delta", "seed", "field"), {"field": None, "seed": None, **defaults})

    p = sub.add_parser("decompose", help="emit the stopping-time decomposition as JSON")
    _add_flags(p, _FAMILY_FLAGS + ("max-gen",), defaults)

    p = sub.add_parser("badness", help="badness tables and the shrink trace")
    _add_flags(p, _FAMILY_FLAGS + ("lambda0",), defaults)

    p = sub.add_parser("sweep", help="run a parameter sweep, write CSV")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, text, names in (
        ("delta", "density scaling", ("m", "delta", "seed", "iters")),
        ("lp", "L^p sharpness", ("m", "delta")),
        ("logn", "log N growth", ("seed", "iters")),
    ):
        _add_flags(kinds.add_parser(kind, help=text), names, defaults)

    p = sub.add_parser("kakeya", help="emit a compression-tree instance")
    _add_flags(p, ("m", "delta", "depth"), defaults)

    p = sub.add_parser("verify", help="oracle equivalence and invariant suite")
    p.add_argument("--quick", action="store_true")
    _add_flags(p, ("m",), defaults)

    return parser


def _spec(args) -> GridSpec:
    m = args.m if args.m is not None else _FAMILY_M
    mw = args.mw if args.mw is not None else m - 2
    return spec_from_offstep(m, mw, args.offstep)


def _delta(args) -> DyadicRational:
    if args.delta is None:
        return DyadicRational(1, 3)
    deltas = _parse_deltas(args.delta)
    if len(deltas) > 1:
        raise ValueError(f"--delta takes one value here, not {args.delta!r}")
    return deltas[0]


def _family(args) -> tuple[OneVarField, RectangleFamily]:
    """The field of --field and its family for --m --mw --offstep --delta."""
    spec = _spec(args)
    delta = _delta(args)
    field = _field_for(spec, args.field, args.seed)
    return field, enumerate_family(FamilyParams(spec, delta), field)


def _apply_config(args, argv: list[str]) -> None:
    """Set each --config value the command line does not give; ValueError if
    bad.  The values, converted by their options' types, are the command's
    defaults for a second parse, so argparse decides what argv gave."""
    if args.config is None:
        return
    defaults = {}
    for key, value in _config_defaults(args.config).items():
        name = key.replace("_", "-")
        attr = name.replace("-", "_")
        # the positionals are not options: a key must not reroute the command;
        # nor is a config file a key of one
        if attr in ("command", "kind", "config") or not hasattr(args, attr):
            raise ValueError(f"unknown key '{key}'")
        if name == "quick":
            if value.lower() not in _BOOLEANS:
                raise ValueError(f"'{key}' takes true or false, not {value!r}")
            defaults[attr] = _BOOLEANS[value.lower()]
            continue
        try:
            defaults[attr] = _FLAGS.get(name, {}).get("type", str)(value)
        except ValueError:  # only the int options raise
            raise ValueError(f"'{key}' takes an integer, not {value!r}") from None
    vars(args).update(vars(_parser(defaults).parse_args(argv)))


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args, argv)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        return _dispatch(args)
    except ShrinkHalvingError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _reject_unread_seed(args) -> None:
    """enumerate and maximal draw only a random field; a --seed beside any other is a usage error."""
    if args.seed is not None and args.field != "random":
        raise ValueError("--seed is read only with --field random")


def _dispatch(args) -> int:
    if args.command == "enumerate":
        _reject_unread_seed(args)
        _, fam = _family(args)
        lines = fam.export_lines()
        head = f"# members {len(fam)}\n"
        _write(args.out, head + "\n".join(lines) + "\n")
        return 0

    if args.command == "maximal":
        if args.field_file and args.field is not None:
            raise ValueError("--field-file and --field both name the field; give one")
        _reject_unread_seed(args)
        grid = parse_grid(Path(args.grid).read_text())
        spec = grid.spec
        if args.field_file:
            field = parse_field(Path(args.field_file).read_text())
        else:
            field = _field_for(spec, args.field or "identity", args.seed)
        fam = enumerate_family(FamilyParams(spec, _delta(args)), field)
        out = maximal_apply(grid, fam)
        _write(args.out, render_grid(out))
        return 0

    if args.command == "decompose":
        field, fam = _family(args)
        f = random_grid(fam.spec, random.Random(args.seed))
        rho = linearize(f, fam)
        result = run_generations(field, fam.spec.w, fam.params.delta, rho, args.max_gen)
        _write(args.out, decomposition_to_json(result) + "\n")
        return 0

    if args.command == "badness":
        lam0 = _dyadic(args.lambda0) if args.lambda0 else DEFAULT_LAMBDA0
        _, fam = _family(args)
        f = random_grid(fam.spec, random.Random(args.seed))
        rho = linearize(f, fam)
        cells = frozenset(rho.covered_cells())
        table = badness_table(cells, rho)
        trace = shrink_iterate(cells, rho, lam0)
        _write(args.out, table.to_csv() + trace.to_csv())
        return 0

    if args.command == "sweep":
        given = vars(args)  # each kind declares only the flags it reads
        cfg = ExperimentConfig(seed=given.get("seed", 0), m_override=given.get("m"))
        cfg.ascent_iters = given.get("iters", cfg.ascent_iters)
        if given.get("delta"):
            cfg.deltas = _parse_deltas(args.delta)
        if args.kind == "delta":
            sweep = sweep_delta(cfg)
            _write(args.out, sweep.to_csv())
            sys.stderr.write(f"fit a={sweep.fit_a:.6g} b={sweep.fit_b:.6g}\n")
        elif args.kind == "lp":
            _write(args.out, sweep_lp(cfg).to_csv())
        else:
            _write(args.out, sweep_logn(cfg).to_csv())
        return 0

    if args.command == "kakeya":
        delta = _delta(args)
        m = args.m if args.m is not None else kakeya_grid_m(delta)
        bundle = make_kakeya_bundle(m, delta, args.depth)
        base = args.out or "kakeya"
        Path(f"{base}.field").write_text(render_field(bundle.field))
        Path(f"{base}.grid").write_text(render_grid(bundle.indicator))
        Path(f"{base}.family").write_text("\n".join(bundle.tails.export_lines()) + "\n")
        sys.stdout.write(
            f"support {bundle.support_measure.render()} depth {bundle.depth} "
            f"tails {len(bundle.tails)}\n"
        )
        return 0

    if args.command == "verify":
        out_dir = Path(args.out) if args.out else None
        corpus = None
        if args.m is not None:
            from .instances import build_corpus

            corpus = [inst for inst in build_corpus() if inst.spec.m <= args.m]
        report = run_verify(corpus=corpus, out_dir=out_dir, quick=args.quick)
        sys.stdout.write(report.to_text())
        return 0 if report.ok else 1

    raise ValueError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
