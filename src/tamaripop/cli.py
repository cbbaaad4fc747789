"""Command line front end.

All machine-readable output is JSON on stdout (one document per run, keys
sorted); human diagnostics and timings go to stderr.  Exit codes: 0 on
success, 1 when a verification suite reports a failure, 2 for usage errors
including exceeded size bounds (enum, sortable and image take --force to
lift the element bound) and a verify bound that no selected check reads.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import brackets, perms, pop, series, verification
from .brackets import BracketVector
from .paths import NuContext, _check_n, _row_blocks, _step_texts, east_staircase, enumerate_tam

__all__ = ["main"]


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _context_from_args(args) -> NuContext:
    if args.nu is not None:
        return NuContext.from_text(args.nu)
    return NuContext.from_path(east_staircase(args.n))


def _cmd_enum(args) -> int:
    if args.n is not None:
        _check_n(args.n, args.force)  # before E(NE)^(n-1) is built
    ctx = _context_from_args(args)
    east = enumerate_tam(ctx, force=args.force).east
    # the lines of _emit, written directly: keys sorted, and an int list's str is its JSON
    head = f'{{"nu": "{ctx.nu.steps}", "path": "'
    for rows in _row_blocks(east):  # slot-filled a block at a time
        lines = zip(_step_texts(rows), brackets._slot_rows(rows, ctx).tolist())
        sys.stdout.write("".join([f'{head}{steps}", "vector": {v}}}\n' for steps, v in lines]))
    return 0


def _cmd_pop(args) -> int:
    if args.perm is not None:
        p = perms.parse_permutation(args.perm)
        result = perms.pop_tamari_perm(p)
        _emit({"perm": list(p.word), "pop": list(result.word)})
        return 0
    words = args.vector.split(",")
    if args.nu is None and args.n >= 1 and len(words) != 2 * args.n:  # before building nu
        raise ValueError(f"expected {2 * args.n} entries, got {len(words)}")
    ctx = _context_from_args(args)
    entries = tuple(map(int, words))
    traj = pop.trajectory(BracketVector.checked(entries, ctx))  # ValueError: exit 2
    if args.trace:
        for state in traj.states:
            print("state: " + ",".join(map(str, state.entries)), file=sys.stderr)
    _emit(
        {
            "nu": ctx.nu.steps,
            "trajectory": [list(s.entries) for s in traj.states],
            "sortability_time": traj.sortability_time,
        }
    )
    return 0


def _cmd_sortable(args) -> int:
    count = pop.count_t_sortable(args.n, args.t, force=args.force)  # rejects n, t < 1 first
    h = series.h_series(args.t, args.n)
    _emit(
        {
            "n": args.n,
            "t": args.t,
            "count": count,
            "series_coefficient": str(h[args.n]),
            "agree": count == h[args.n],
        }
    )
    return 0


def _cmd_series(args) -> int:
    if args.terms < 0:
        raise ValueError(f"need --terms >= 0, got {args.terms}")
    h = series.h_series(args.t, args.terms)
    _emit([str(h[n]) for n in range(args.terms + 1)])
    return 0


def _cmd_image(args) -> int:
    image = pop.pop_image(args.n, force=args.force)
    out = {"n": args.n, "size": len(image), "motzkin": series.motzkin(args.n - 1)}
    if args.qpoly:
        poly = pop.pop_polynomial(args.n, force=args.force)
        out["qpoly"] = {str(k): v for k, v in sorted(poly.coeffs.items())}
        out["qpoly_formula"] = {str(k): v for k, v in series.qpolynomial_formula(args.n - 1).items()}
    _emit(out)
    return 0


def _cmd_verify(args) -> int:
    opts = verification.VerifyOptions(max_n=args.max_n, max_t=args.max_t, seed=args.seed)
    try:
        report = verification.run_suite(args.suite, opts, log=sys.stderr)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamaripop",
        description="Pop-stack sorting on Tamari lattices of lattice paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_base_path(p, required: bool) -> None:
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--n", type=int, help="use the n-element staircase base path")
        group.add_argument("--nu", type=str, help="explicit base path over letters N and E")

    p = sub.add_parser("enum", help="list the lattice elements over a base path")
    add_base_path(p, required=True)
    p.add_argument("--force", action="store_true", help="lift the size bound")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("pop", help="run the pop operator to the bottom element")
    add_base_path(p, required=False)
    p.add_argument("--vector", type=str, help="comma separated vector entries")
    p.add_argument("--perm", type=str, help="apply the permutation form instead")
    p.add_argument("--trace", action="store_true", help="print each state to stderr")
    p.set_defaults(func=_cmd_pop)

    p = sub.add_parser("sortable", help="count elements that sort within t steps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--force", action="store_true", help="lift the size bound")
    p.set_defaults(func=_cmd_sortable)

    p = sub.add_parser("series", help="print counting series coefficients")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--terms", type=int, default=20)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("image", help="describe the image of the pop operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--qpoly", action="store_true", help="include the up-cover histogram")
    p.add_argument("--force", action="store_true", help="lift the size bound")
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", type=str, default="all", help="|".join(verification.suite_names()))
    p.add_argument("--max-n", type=int, default=None, help="override size bounds")
    p.add_argument("--max-t", type=int, default=None, help="override step bounds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "pop" and args.perm is None:
        if args.vector is None or (args.n is None and args.nu is None):
            parser.error("pop needs either --perm or both --vector and a base path")
    elif args.command == "pop":
        if (args.vector, args.n, args.nu, args.trace) != (None, None, None, False):
            parser.error("pop --perm takes none of --vector, --n, --nu and --trace")
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:  # BoundExceeded is a ValueError
        hint = ""
        if getattr(exc, "liftable", False) and getattr(args, "force", None) is False:
            hint = "; pass --force to override"  # only enum, sortable and image take --force
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # asking for more than the process can get is a usage error too
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
