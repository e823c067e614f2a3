"""Command-line front end: validate, simulate, verify, catalog.

Exit codes: 0 success, 1 domain or tolerance failure, 2 usage or parse
error; a usage error is a ValueError, or a MemoryError from a --samples
count too large to allocate, which `main` prints as one `error: ...`
line. A --pair whose modules fail the bracket condition is a usage
error too, refused before any flow runs, and so is a verify run whose
Koszul residual or sweep value is not finite, which no check can
judge. Output is CSV or a JSON tree; identical configuration and seed
produce byte-identical output on a platform. Each quantity has one
source: the field strength is --k, W comes from the space, and
verify's Koszul tolerance is --tol.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from functools import cache, partial

import numpy as np

from .catalog import (
    _re_im,
    catalog_names,
    export_entry,
    get_entry,
    load_custom,
    make_system,
)
from .field import BracketConditionError, WeightRatioError, metric_norm
from .linalg import DomainError, StructureError, bnorm
from .motion import CurveGrid, build_motion, perturb_motion, sample_trajectory
from .oracle import (
    algebraic_identity_check,
    conservation_sweep,
    great_circle_check,
    lambda_collapse_check,
    velocity_agreement_sweep,
    magnetic_circle_check,
    module_invariance_sweep,
    residual_sweep,
)
from .split import CATALOG_TOL, report_lines

OK, FAIL, USAGE = 0, 1, 2

# (report key, failure name, bound) of verify's sweeps after the Koszul one, in failure order
_SWEEP_BOUNDS = (
    ("bracket_identity_max", "bracket identity", 1e-11),
    ("speed_drift", "speed drift", 1e-10),
    ("module_invariance_max", "module invariance", 1e-10),
    ("velocity_agreement_max", "velocity agreement", 1e-11),
)


def _parse_pair(text):
    parts = [p.strip() for p in text.split(",")]
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"--pair wants 'a,b' or 'a', got {text!r}")
    try:
        a = int(parts[0])
        b = int(parts[1]) if len(parts) == 2 and parts[1] else None
    except ValueError:
        raise ValueError(f"--pair wants integers, got {text!r}")
    return a, b


def _parse_coeffs(text, flag):
    try:
        coeffs = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{flag} wants finite coefficients, got {text!r}")
    return coeffs


def _finite_float(text):
    """The argparse type of the float flags: a finite float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive_float(text):
    """The argparse type of --tol and --fd-step: a positive finite float."""
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return x


def _resolve_space(name):
    if name in catalog_names():
        return get_entry(name)
    if os.path.exists(name):
        try:
            with open(name) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {name}: {exc.strerror}")
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
            raise ValueError(f"cannot parse {name}: {exc}")
        return load_custom(doc)
    raise ValueError(
        f"unknown space {name!r}: not a catalog name "
        f"({', '.join(catalog_names())}) and not a file"
    )


def _write(blocks, out_path):
    """Write a list of ASCII bytes blocks to out_path or to stdout.

    The blocks go to the file as they are; stdout takes them as text in one
    write. Once the reader of stdout has gone away, the rest of the
    output is dropped: stdout is pointed at the null device, so later
    writes and the flush at exit succeed and the command ends with its
    own code.
    """
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}")
        return
    try:
        sys.stdout.write(b"".join(blocks).decode("ascii"))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_text(doc):
    return [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")]


def _system_from_args(args):
    entry = _resolve_space(args.space)
    pair = _parse_pair(args.pair) if args.pair else None
    weights = tuple(args.weights) if args.weights else None
    try:
        return entry, make_system(entry, weights=weights, k=args.k, pair=pair)
    except WeightRatioError as exc:  # "weight ratio ... is out of floating-point range"
        raise ValueError(f"the --lambda {exc}")
    except BracketConditionError as exc:  # a space's own pair passed when it loaded: --pair chose it
        raise ValueError(str(exc))


def _initial_data(system, args):
    rng = np.random.default_rng(args.seed)
    ma, mb = system.ma, system.mb

    def build(space, coeffs, name):
        if coeffs is not None:
            if len(coeffs) != space.dim:
                raise ValueError(f"{name} wants {space.dim} coefficients, got {len(coeffs)}")
            return space.combine(coeffs)
        X = space.combine(rng.standard_normal(space.dim))
        return X / metric_norm(system, X)

    xa = _parse_coeffs(args.xa, "--xa") if args.xa else None
    xb = _parse_coeffs(args.xb, "--xb") if args.xb else None
    Xa = build(ma, xa, "--xa")
    if mb is None or mb.dim == 0:
        if xb:
            raise ValueError("this space has no second module; drop --xb")
        return Xa, None
    return Xa, build(mb, xb, "--xb")


def _motion_from_args(args):
    entry, system = _system_from_args(args)
    lam, k = system.lam, system.k
    Xa, Xb = _initial_data(system, args)
    w, a, b = bnorm(system.W), bnorm(Xa), 0.0 if Xb is None else bnorm(Xb)
    # the motion forms X = Xa + lam Xb + k W and Y = (1 - lam)(Xb + (k/lam) W) as matrices,
    # so the triangle bounds of their B-norms, which bound every entry, are gated first
    _gate_sizes({"central element W": w, "generator X": a + lam * b + abs(k) * w,
                 "generator Y": abs(1.0 - lam) * (b + abs(k / lam) * w)}, k, lam)
    motion = build_motion(system, Xa, Xb)
    if args.perturb:
        motion = perturb_motion(motion, eps=args.perturb, seed=args.seed)
    _gate_sizes({"generator X": bnorm(motion.X), "generator Y": bnorm(motion.Y)}, k, lam)
    return entry, system, motion


def _gate_sizes(sizes, k, lam):
    """Raise ValueError naming the first of the sizes, B-norms keyed by name, that is not finite."""
    for name, size in sizes.items():
        if not np.isfinite(size):  # W comes from the space, not from a flag
            fix = "W in the space document" if name == "central element W" else "--k, --perturb or the ratio"
            raise ValueError(
                f"the {name} overflows at --k {k:.3e} and --lambda weight ratio {lam:.3e}; reduce {fix}"
            )


def cmd_validate(args):
    try:
        entry = _resolve_space(args.space)
    except (StructureError, DomainError) as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        _write(_json_text({"passed": False, "error": str(exc)}), args.out)
        return FAIL
    rep = entry.report
    checks = {name: {"passed": r <= CATALOG_TOL, "residual": r} for name, r in rep.items()}
    passed = all(c["passed"] for c in checks.values())
    _write([f"{line}\n".encode("ascii") for line in report_lines(rep, CATALOG_TOL)], None)
    _write(_json_text({"space": entry.name, "passed": passed, "checks": checks}), args.out)
    return OK if passed else FAIL


def _csv(header, table):
    """The header line and the CSV blocks of the table rows, as a list of bytes, each value as %.17g.

    Every block is formatted before the first write: writing between
    blocks lets the allocator trim and refault the heap, which doubles
    the page faults of a simulate op.
    """
    from .csvtext import blocks  # imported here: commands that write no CSV never load it

    return [(",".join(header) + "\n").encode("ascii"), *blocks(table)]


def _sample_csv(traj, n):
    """The simulate CSV: one row per t of the CurveGrid's stacks."""
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header += [f"rep_{i}{j}_re", f"rep_{i}{j}_im"]
    T = len(traj.t)
    columns = [traj.t, _re_im(traj.representative).reshape(T, -1)]
    pos = traj.position
    if pos is not None:
        if np.iscomplexobj(pos):
            header += [f"pos_{i}_{part}" for i in range(pos.shape[1]) for part in ("re", "im")]
            pos = _re_im(pos).reshape(T, -1)
        else:
            header += [f"pos_{i}" for i in range(pos.shape[1])]
        columns.append(pos)
    header.append("speed")
    columns.append(traj.speed)
    return _csv(header, np.column_stack(columns))


def _run_flags(args, fewest):
    """Before the space is built, refuse fewer than `fewest` --samples, a negative --seed, which
    numpy's generator refuses, and a --t1 - --t0 that overflows, which np.linspace would warn of."""
    if args.samples < fewest:
        raise ValueError(f"--samples must be at least {fewest}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if not np.isfinite(args.t1 - args.t0):
        raise ValueError(f"--t1 - --t0 overflows: [{args.t0}, {args.t1}] is wider than float range")


def cmd_simulate(args):
    _run_flags(args, 2)
    if not args.t0 < args.t1:
        raise ValueError(f"--t0 must be below --t1, got [{args.t0}, {args.t1}]")
    entry, system, motion = _motion_from_args(args)
    traj = sample_trajectory(motion, args.t0, args.t1, args.samples)
    if args.format == "csv":
        text = _sample_csv(traj, system.split.n)
    else:
        pos = traj.position
        if pos is None:
            pos = [None] * len(traj.t)
        else:
            pos = (_re_im(pos) if np.iscomplexobj(pos) else pos).tolist()
        rep = _re_im(traj.representative).tolist()
        doc = {
            "space": entry.name,
            "samples": [
                {"t": t, "representative": g, "position": p, "speed": s}
                for t, g, p, s in zip(traj.t.tolist(), rep, pos, traj.speed.tolist())
            ],
        }
        text = _json_text(doc)
    _write(text, args.out)
    return OK


def _special(motion, check, *args):
    """check(*args) on an exact motion, or None where the check does not apply (DomainError)."""
    if not motion.exact:
        return None
    try:
        return check(*args)
    except DomainError:
        return None


def cmd_verify(args):
    _run_flags(args, 1)
    entry, system, motion = _motion_from_args(args)
    grid = CurveGrid(motion, np.linspace(args.t0, args.t1, args.samples), None, args.fd_step)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite value is refused below
        res = residual_sweep(grid)
        sweeps = (float(np.max(algebraic_identity_check(grid))), conservation_sweep(grid),
                  module_invariance_sweep(grid), velocity_agreement_sweep(grid))
    names = ["koszul residual"] + [what for _, what, _ in _SWEEP_BOUNDS]
    unresolved = [f"{what} {r}" for what, r in zip(names, (res.max_abs, *sweeps)) if not np.isfinite(r)]
    if unresolved:
        raise ValueError("the arithmetic cannot resolve this configuration: " + ", ".join(unresolved))
    failures = []
    if not res.max_abs <= args.tol:
        failures.append(f"koszul residual {res.max_abs:.3e} > {args.tol:.1e}")
    for (_, what, bound), r in zip(_SWEEP_BOUNDS, sweeps):
        if not r <= bound:
            failures.append(f"{what} {r:.3e} > {bound:.0e}")
    special = {}
    gap = _special(motion, lambda_collapse_check, grid)
    if gap is not None:
        special["collapse"] = {"max_frobenius": gap}
        # roundoff in exp(tX) grows with the phase rho |t| it turns through
        bound = 1e-12 * max(1.0, motion.rate * max(abs(args.t0), abs(args.t1)))
        if not gap <= bound:
            failures.append(f"collapse {gap:.3e} > {bound:.3g}")
    circle = _special(motion, great_circle_check, motion)
    if circle is not None:
        radius_dev, planarity, _ = circle
        special["great_circle"] = {"max_radius_dev": radius_dev, "max_planarity": planarity}
        if not (radius_dev <= 1e-10 and planarity <= 1e-9):
            failures.append("great-circle check failed")
    mc = _special(motion, magnetic_circle_check, system, motion.Xa)
    if mc is not None:
        rows, constant, increasing = mc
        special["magnetic_circle"] = {
            "entries": [{"k": k, "kappa_mean": m, "variation": v} for k, m, v in rows.tolist()],
            "constant": constant,
            "increasing": increasing,
        }
        if not (constant and increasing):
            failures.append("magnetic-circle check failed")
    doc = {
        "space": entry.name,
        "weights": list(system.weights),
        "pair": [system.a, system.b],
        "k": system.k,
        "seed": args.seed,
        "perturb": args.perturb,
        "fd_step": args.fd_step,
        "tolerance": args.tol,
        "koszul": {
            "max_abs": res.max_abs,
            "argmax_t": res.argmax[0],
            "argmax_probe": res.argmax[1],
        },
        **{key: r for (key, _, _), r in zip(_SWEEP_BOUNDS, sweeps)},
        "special": special,
        "failures": failures,
        "passed": not failures,
    }
    if args.format == "csv":
        T, P = res.values.shape[:2]
        table = np.column_stack(
            [np.repeat(res.t, P), np.tile(np.arange(P), T), res.values.reshape(T * P, 5)]
        )
        text = _csv(["t", "probe", "t1", "t2", "t3", "rhs", "residual"], table)
    else:
        text = _json_text(doc)
    _write(text, args.out)
    if failures:
        sys.stderr.write("verification failed: " + "; ".join(failures) + "\n")
        return FAIL
    return OK


def cmd_catalog(args):
    if args.action == "list":
        lines = []
        for name in catalog_names():
            e = get_entry(name)
            kind = e.model.kind if e.model is not None else "none"
            b = e.pair[1] if e.pair[1] is not None else "-"
            lines.append(
                f"{name:14s} dims={e.split.dims} weights={e.weights} "
                f"pair=({e.pair[0]},{b}) model={kind}\n".encode("ascii")
            )
        _write(lines, args.out)
        return OK
    if not args.name:
        raise ValueError("catalog export needs a name")
    try:
        entry = get_entry(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0])
    _write(_json_text(export_entry(entry)), args.out)
    return OK


def _space_flags(p, fmt="csv"):
    """The flags of simulate, which verify shares with another default format."""
    p.add_argument("--space", required=True, help="catalog name or space document path")
    p.add_argument(
        "--lambda",
        dest="weights",
        action="append",
        type=_finite_float,
        metavar="WEIGHT",
        help="metric weight, once per module (in order)",
    )
    p.add_argument("--pair", default=None, help="module pair 'a,b' (or 'a' for no b)")
    p.add_argument("--k", type=_finite_float, default=0.0, help="charge")
    p.add_argument("--xa", default=None, help="comma-separated coefficients in the m_a basis")
    p.add_argument("--xb", default=None, help="comma-separated coefficients in the m_b basis")
    p.add_argument("--t0", type=_finite_float, default=-2.0)
    p.add_argument("--t1", type=_finite_float, default=2.0)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=_finite_float, default=0.0, metavar="EPS")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json-tree"), default=fmt)


def _verify_flags(p):
    """The flags of simulate, the finite-difference step and the residual tolerance."""
    _space_flags(p, "json-tree")
    p.add_argument("--fd-step", dest="fd_step", type=_positive_float, default=1e-4)
    p.add_argument("--tol", type=_positive_float, default=1e-6)


def _validate_flags(p):
    p.add_argument("--space", required=True)
    p.add_argument("--out", default=None)


def _catalog_flags(p):
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)


_COMMANDS = {
    "validate": ("run structural validators on a space", _validate_flags, cmd_validate),
    "simulate": ("sample a closed-form trajectory", _space_flags, cmd_simulate),
    "verify": ("run the residual oracle and all checks", _verify_flags, cmd_verify),
    "catalog": ("list entries or export one", _catalog_flags, cmd_catalog),
}


@cache
def build_parser():
    """The two-level parser: the four commands, each with its flags, built once per process.

    The terminal width is looked up when it is built.
    """
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="homofiber",
        description=(
            "Homogeneous fibrations of compact matrix groups: closed-form "
            "charged-particle trajectories and independent verification."
        ),
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help_text, add_flags, func) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text, formatter_class=formatter)
        add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (DomainError, StructureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAIL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    except MemoryError as exc:  # numpy refuses an array that cannot fit at once
        what = f"--samples {args.samples}" if hasattr(args, "samples") else "this input"
        sys.stderr.write(f"error: {what} needs more memory than there is: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
