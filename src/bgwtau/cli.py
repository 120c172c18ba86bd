"""Command line front end.

Subcommands: expand, free-energy, phi, schur, verify, cache.  All polynomial
output is canonical text; JSON mode wraps the same strings (exact rationals
are never converted to floats).  Exit codes: 0 success, 1 verification
failure, 2 usage error.

The expansion cache stores one content-addressed file per
(m, N, K, engine-version) with a header line, canonical-text body and a
trailing checksum; loads re-verify the checksum and the expansion
invariants before trusting a file, and silently recompute otherwise.  An
unusable cache directory (an OSError, or a ValueError such as an embedded
NUL in its path) is a miss and a skipped store, never an error: the result
is computed and printed all the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from . import ENGINE_VERSION
from .algebra import TimePolynomial, canonical_text, parse_polynomial
from .cutjoin import (
    TauExpansion,
    check_expansion_invariants,
    free_energy,
    tau_expand,
)
from .rational import QQ, rat_str
from .schur import plucker_expansion, tau_from_schur
from .verify import run_suites
from .zcalculus import phi_coefficients, phi_series_gen


def parse_n(text: str):
    """The --N value: "symbolic", or a rational in the fractions.Fraction
    grammar ("1/2", "-3", "1e3", "1_000", " 1/2")."""
    if text == "symbolic":
        return "symbolic"
    try:
        return QQ(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad N value {text!r}") from exc


def int_at_least(lo: int):
    """argparse type: an integer >= lo."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v

    return parse


def parse_j(text: str):
    if text == "symbolic":
        return text
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f'bad j value {text!r}: an integer or "symbolic"') from exc


def n_text(N) -> str:
    return N if N == "symbolic" else rat_str(QQ(N))


# ---------------------------------------------------------------------------
# expansion cache


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("BGWTAU_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bgwtau"


def _cache_header(m: int, N, K: int) -> str:
    return f"tau m={m} N={n_text(N)} K={K} engine={ENGINE_VERSION}"


def _cache_path(directory: Path, header: str) -> Path:
    return directory / (hashlib.sha256(header.encode()).hexdigest()[:24] + ".tau")


def _read_lines(path: Path) -> list[str] | None:
    """Lines of a cache file; None if it cannot be read, is not UTF-8 text
    (a UnicodeDecodeError) or its path is not one the OS accepts (a ValueError,
    e.g. an embedded NUL)."""
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError):
        return None


def cache_store(T: TauExpansion, directory: Path) -> Path | None:
    """Write T to the cache; None (nothing stored) if the directory cannot
    be created or written, or its path is not one the OS accepts."""
    header = _cache_header(T.m, T.N, T.order)
    body = "\n".join(canonical_text(c) for c in T.coeffs)
    digest = hashlib.sha256((header + "\n" + body).encode()).hexdigest()
    path = _cache_path(directory, header)
    tmp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # a private temporary name per writer, so concurrent stores of one key
        # never interleave; os.replace publishes the finished file atomically
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.stem + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(f"{header}\n{body}\nchecksum={digest}\n")
        os.replace(tmp, path)
    except (OSError, ValueError):
        return None
    finally:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
    return path


def cache_load(m: int, N, K: int, directory: Path) -> TauExpansion | None:
    """The cached expansion, or None (a miss) if there is none, it fails its
    checks, or it cannot be read or parsed."""
    header = _cache_header(m, N, K)
    lines = _read_lines(_cache_path(directory, header))
    if lines is None or len(lines) != K + 3 or lines[0] != header \
            or not lines[-1].startswith("checksum="):
        return None
    digest = hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest()
    if lines[-1] != f"checksum={digest}":
        return None
    try:
        coeffs = [parse_polynomial(s) for s in lines[1:-1]]
    except (ValueError, ZeroDivisionError):
        return None
    T = TauExpansion(m, N, coeffs, "cache")
    if not check_expansion_invariants(T).ok:
        return None
    return T


class CliError(Exception):
    """A command's failure: main prints "error: <message>" on stderr and exits
    with code (1 a failed check, 2 a usage error)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _expansion(args) -> TauExpansion:
    """tau_0..tau_K of an expand or free-energy command: the determinant
    oracle's with --oracle (checked, never cached), else the recursion's,
    through the disk cache unless --no-cache."""
    m, N, K = args.m, args.N, args.order
    if args.oracle:
        T = tau_from_schur(plucker_expansion(m, N, m * K))
        if not check_expansion_invariants(T).ok:
            raise CliError(1, "oracle expansion failed invariant checks")
        return T
    if m not in (1, 2):
        raise CliError(2, f"recursion unavailable for m={m}; rerun with --oracle to use the"
                          " determinant oracle")
    if args.no_cache:
        return tau_expand(m, N, K)
    cdir = cache_dir(args.cache_dir)
    T = cache_load(m, N, K, cdir)
    if T is None:
        T = tau_expand(m, N, K)
        cache_store(T, cdir)
    return T


# ---------------------------------------------------------------------------
# subcommands


def _show(args, doc: dict, lines: list[str]) -> int:
    """Print doc as one JSON line under --format json, else lines one a line
    (none for an empty list); the exit code 0."""
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _text(c) -> str:
    """Canonical text of one coefficient."""
    return canonical_text(TimePolynomial.constant(c))


def cmd_expand(args) -> int:
    T = _expansion(args)
    texts = [canonical_text(p) for p in T.coeffs]
    return _show(args, {"m": T.m, "N": n_text(T.N), "K": T.order, "coeffs": texts},
                 [f"tau[{k}] = {s}" for k, s in enumerate(texts)])


def cmd_free_energy(args) -> int:
    T = _expansion(args)
    texts = [canonical_text(p) for p in free_energy(T)]
    return _show(args, {"m": T.m, "N": n_text(T.N), "K": T.order, "free_energy": texts},
                 [f"F[{k}] = {s}" for k, s in enumerate(texts, start=1)])


def cmd_phi(args) -> int:
    m = args.m
    if args.j == "symbolic":
        rows = list(enumerate(map(_text, phi_coefficients(m, args.depth))))
        return _show(args, {"m": m, "coeffs": {f"z^-{m * k}": s for k, s in rows}},
                     [f"phi[m={m},k={k}] = {s}   # * h^{k} z^-{m * k}" for k, s in rows])
    series = phi_series_gen(m, args.N, args.j, args.depth)
    rows = [(f"z^{n}", _text(c)) for n, c in sorted(series.coeffs.items(), reverse=True)]
    return _show(args, {"m": m, "N": n_text(args.N), "j": args.j, "series": dict(rows),
                        "floor": series.floor},
                 [f"{key}: {s}" for key, s in rows] + [f"floor: z^{series.floor}"])


def cmd_schur(args) -> int:
    table = plucker_expansion(args.m, args.N, args.degree, args.points).table
    rows = [("[" + ",".join(map(str, mu)) + "]", _text(c))
            for mu, c in sorted(table.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
    return _show(args, {"m": args.m, "N": n_text(args.N), "degree": args.degree,
                        "coefficients": dict(rows)},
                 [f"C{key} = {s}" for key, s in rows])


def cmd_verify(args) -> int:
    names = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not names:
        raise CliError(2, "empty suite selector")
    try:
        rep = run_suites(names, m=args.m, N=args.N, order=args.order, depth=args.depth)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    for line in rep.lines():
        print(line)
    if args.format == "json":
        print(json.dumps(rep.summary(), sort_keys=True))
    return 0 if rep.ok else 1


def cmd_cache(args) -> int:
    cdir = cache_dir(args.cache_dir)
    if args.action == "dir":
        print(cdir)
    elif cdir.exists() and not cdir.is_dir():
        raise CliError(2, f"cache directory {str(cdir)!r} is not a directory")
    elif args.action == "list":
        if cdir.exists():
            for p in sorted(cdir.glob("*.tau")):
                lines = _read_lines(p)
                print(f"{p.name}: {lines[0] if lines else '(no header)'}")
    elif args.action == "clear":
        if cdir.exists():
            for p in cdir.glob("*.tau"):
                try:
                    p.unlink()
                except OSError as exc:
                    raise CliError(2, f"cannot remove {str(p)!r}: {exc.strerror}") from exc
        print("cache cleared")
    return 0


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv: only the subcommand argv[0] names, under the usage
    line of all six, or else all six (for the help page and usage errors)."""
    ap = argparse.ArgumentParser(
        prog="bgwtau",
        description="Exact topological expansions of higher BGW tau-functions",
    )
    names = ("expand", "free-energy", "phi", "schur", "verify", "cache")
    chosen = [name for name in names if name in argv[:1]] or names
    sub = ap.add_subparsers(dest="command",
                            metavar="{" + ",".join(names) + "}" if len(chosen) == 1 else None)

    def common(p, order=True):
        p.add_argument("--m", type=int_at_least(1), default=2, help="branching index m >= 1")
        p.add_argument("--N", type=parse_n, default=QQ(0),
                       help='deformation parameter: rational like 1/2, or "symbolic"')
        if order:
            p.add_argument("--order", type=int_at_least(0), default=None,
                           help="expansion order K (default 6, or degree // m with --degree)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    def cached(p):
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")

    if "expand" in chosen:
        p = sub.add_parser("expand", help="topological expansion tau_0..tau_K")
        common(p)
        cached(p)
        p.add_argument("--degree", type=int_at_least(0), default=None,
                       help="weighted-degree bound (with --oracle)")
        p.add_argument("--oracle", action="store_true", help="use the determinant oracle (any m)")
        p.set_defaults(func=cmd_expand)
    if "free-energy" in chosen:
        p = sub.add_parser("free-energy", help="log tau coefficients F^1..F^K")
        common(p)
        cached(p)
        p.add_argument("--oracle", action="store_true")
        p.set_defaults(func=cmd_free_energy)
    if "phi" in chosen:
        p = sub.add_parser("phi", help="basis-vector series coefficients")
        common(p, order=False)
        p.add_argument("--j", type=parse_j, default="symbolic",
                       help='basis index (integer) or "symbolic"')
        p.add_argument("--depth", type=int_at_least(0), default=4)
        p.set_defaults(func=cmd_phi)
    if "schur" in chosen:
        p = sub.add_parser("schur", help="Schur-expansion coefficients C_mu")
        common(p, order=False)
        p.add_argument("--degree", type=int_at_least(0), default=6)
        p.add_argument("--points", type=int_at_least(0), default=None,
                       help="Miwa points, at least --degree (default: --degree)")
        p.set_defaults(func=cmd_schur)
    if "verify" in chosen:
        p = sub.add_parser("verify", help="run verification suites")
        common(p)
        p.add_argument("--suite", required=True,
                       help="comma list: checksums, golden-A/B/C/inline, constraints,"
                            " hirota, crosscheck, ks, invariants, all")
        p.add_argument("--depth", type=int_at_least(0), default=20)
        p.set_defaults(func=cmd_verify)
    if "cache" in chosen:
        p = sub.add_parser("cache", help="expansion cache maintenance")
        p.add_argument("action", choices=("dir", "list", "clear"))
        p.add_argument("--cache-dir", default=None)
        p.set_defaults(func=cmd_cache)
    # a negative fraction such as -1/2 is a value, as -3 is: no option looks like a number;
    # main reports its own usage errors through the subcommand's parser (args.error)
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
        p.set_defaults(error=p.error)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = (ap := build_parser(argv)).parse_known_args(argv)
    if args.command and extra[:1] == ["--"]:  # argparse leaves the "--" that ends the options
        del extra[0]
    if args.command is None and extra in ([], ["--"]):  # not required=True: argparse would
        ap.error("the following arguments are required: command")  # report it before -x
    if extra:
        (args.error if args.command else ap.error)(f"unrecognized arguments: {' '.join(extra)}")
    if args.command == "expand" and args.degree is not None and not args.oracle:
        args.error("--degree needs --oracle (the recursion takes --order)")
    if "order" in args and args.order is None:
        degree = getattr(args, "degree", None)
        args.order = degree // args.m if degree is not None else 6
    if getattr(args, "points", None) is not None and args.points < args.degree:
        args.error("--points must be at least --degree")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
