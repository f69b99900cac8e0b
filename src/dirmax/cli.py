"""Command-line surface: enumerate, maximal, decompose, badness, sweep, kakeya, verify.

Exit codes: 0 success, 1 invariant failure, 2 usage error.  Identical
arguments (and seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import random
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


def _parse_deltas(text: str) -> tuple[DyadicRational, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "/" in tok and "2^" not in tok:
            num, den = tok.split("/")
            exp = int(den).bit_length() - 1
            if int(den) != 1 << exp:
                raise ValueError(f"delta {tok!r} is not dyadic")
            out.append(DyadicRational(int(num), exp))
        else:
            out.append(DyadicRational.parse(tok))
    return tuple(out)


def _field_for(spec: GridSpec, kind: str, seed: int):
    if kind == "identity":
        return identity_field(spec)
    if kind == "cascade":
        return cascade_field(spec)
    if kind == "random":
        return random_field(spec, random.Random(seed))
    if kind.startswith("const:"):
        return constant_field(spec, DyadicRational.parse(kind.split(":", 1)[1]))
    raise ValueError(f"unknown field kind {kind!r}")


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_defaults(path: str) -> dict[str, str]:
    """Read key=value defaults from a --config file; flags override them."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_FLAGS = {
    "m": dict(type=int, default=None),
    "mw": dict(type=int, default=None),
    "delta": dict(type=str, default=None),
    "lambda0": dict(type=str, default=None),
    "offstep": dict(choices=["w", "w2"], default="w"),
    "seed": dict(type=int, default=0),
    "field": dict(type=str, default="identity"),
}
_FAMILY_FLAGS = ("m", "mw", "delta", "offstep", "seed", "field")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    """The shared flags a command reads, then --out and --config."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirmax",
        description="Exact directional maximal operator lab on the dyadic unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate a density family and export it")
    _add_flags(p, _FAMILY_FLAGS)

    p = sub.add_parser("maximal", help="apply the maximal operator to a grid file")
    _add_flags(p, ("delta", "seed", "field"))
    p.add_argument("--grid", type=str, required=True)
    p.add_argument("--field-file", type=str, default=None)

    p = sub.add_parser("decompose", help="emit the stopping-time decomposition as JSON")
    _add_flags(p, _FAMILY_FLAGS)
    p.add_argument("--max-gen", type=int, default=64)

    p = sub.add_parser("badness", help="badness tables and the shrink trace")
    _add_flags(p, _FAMILY_FLAGS + ("lambda0",))

    p = sub.add_parser("sweep", help="run a parameter sweep, write CSV")
    p.add_argument("kind", choices=["delta", "logn", "lp"])
    _add_flags(p, ("m", "delta", "seed"))
    p.add_argument("--iters", type=int, default=1)

    p = sub.add_parser("kakeya", help="emit a compression-tree instance")
    _add_flags(p, ("m", "delta"))
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("verify", help="oracle equivalence and invariant suite")
    _add_flags(p, ("m",))
    p.add_argument("--quick", action="store_true")

    return parser


def _spec(args, default_m=4) -> GridSpec:
    m = args.m if args.m is not None else default_m
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
    """Set each --config value the command line does not give; ValueError if bad."""
    if args.config is None:
        return
    for key, value in _config_defaults(args.config).items():
        attr = key.replace("-", "_")
        # the positionals are not options: a key must not reroute the command
        if attr in ("command", "kind") or not hasattr(args, attr):
            raise ValueError(f"unknown key '{key}'")
        if any(tok == f"--{key}" or tok.startswith(f"--{key}=") for tok in argv):
            continue
        if key == "quick":
            value = value.lower() in ("1", "true", "yes")
        elif key in ("m", "mw", "seed", "iters", "max-gen", "depth"):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"'{key}' takes an integer, not {value!r}") from None
        setattr(args, attr, value)


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


def _dispatch(args) -> int:
    if args.command == "enumerate":
        _, fam = _family(args)
        lines = fam.export_lines()
        head = f"# members {len(fam)}\n"
        _write(args.out, head + "\n".join(lines) + "\n")
        return 0

    if args.command == "maximal":
        grid = parse_grid(Path(args.grid).read_text())
        spec = grid.spec
        if args.field_file:
            field = parse_field(Path(args.field_file).read_text())
        else:
            field = _field_for(spec, args.field, args.seed)
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
        lam0 = (
            DyadicRational.parse(args.lambda0) if args.lambda0 else DEFAULT_LAMBDA0
        )
        _, fam = _family(args)
        f = random_grid(fam.spec, random.Random(args.seed))
        rho = linearize(f, fam)
        cells = frozenset(rho.covered_cells())
        table = badness_table(cells, rho)
        trace = shrink_iterate(cells, rho, lam0)
        _write(args.out, table.to_csv() + trace.to_csv())
        return 0

    if args.command == "sweep":
        cfg = ExperimentConfig(seed=args.seed, ascent_iters=args.iters)
        if args.delta:
            cfg.deltas = _parse_deltas(args.delta)
        if args.m is not None:
            cfg.m_override = args.m
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
