"""CLI output digests: run a fixed list of fast CLI commands and compare the
sha256 of each one's stdout and its exit code with tools/cli_digests.json.

    python tools/cli_digests.py            # compare; exit 1 on any difference
    python tools/cli_digests.py --record   # (re)write tools/cli_digests.json

The commands cover every verify suite at m = 1, 2, 3 (three of them with
--format json, whose summary no text command prints), the ks suite at
m = 1..4 (N = 0, -1/2, -1, 1/3, 1, 3/2, 7/11, -5/13, -9/13, symbolic, and
N = -m/2 at m = 4, where the zeroth-order term of the step vanishes, and
N = 1/2 at m = 1, where the step's diagonal factor m/2 + N - n vanishes at
n = 1; the quantum Bessel and closing identity cases included; depth 3 to
20, the default depth 20 at m = 1 with symbolic N), the basis-vector tables
(symbolic j at m = 1, 2, 3, 4, 6, depth up to 24; bound j at N = 0,
rational and symbolic N, negative j included, depth 0 in JSON), the
cut-and-join expansions and free energies at m = 1, 2 (rational and
symbolic N; free energy at order 0, whose text output is empty, in text and
JSON), the oracle expansions at m = 1..4 (an oracle free energy at m = 3,
one oracle expansion in JSON; symbolic N at m = 1, 2, 3; N = 7/11 and -3/13
at m = 1, 2, whose column denominators do not divide one another; N = 1 at
m = 3; degree 15 at m = 3 and 16 at m = 4) and the crosscheck suite at
m = 3, 4, Schur tables at m = 1..5 (more Miwa points than the degree
included; degree 0 in JSON; N = 1/2 at m = 2, whose basis vectors
truncate, so some column entries are zero), and the help page of the
program and of each subcommand (with COLUMNS=80, so that argparse's wrap
width does not depend on the terminal), so a change that must keep the CLI
output byte-identical can be checked against digests recorded before it.
Each command runs as `python -m bgwtau.cli ...` from the root of the
checkout with `src` on PYTHONPATH; none of them reads or writes the disk
cache (expand and free-energy run with --no-cache).

The WARM commands (expand and free-energy at m = 1, 2, rational and
symbolic N, one in JSON; each also in COMMANDS) run with the disk cache
too: each one twice into a fresh private temporary --cache-dir in place of
--no-cache, a cold run that stores the expansion and then a warm run that
must be served from it (the stored file is left as it was).  Both runs
must match the recorded --no-cache digest and exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_suffix(".json")
COMMANDS = (
    "verify --suite all --m 2 --order 5 --depth 6",
    "verify --suite all --m 3 --order 3 --depth 6",
    "verify --suite constraints --m 2 --N 1/3 --order 7",
    "verify --suite constraints --m 1 --N symbolic --order 8",
    "verify --suite hirota,invariants,constraints --m 1 --N 0 --order 8",
    "verify --suite ks --m 3 --depth 6",
    "verify --suite golden-A",
    "phi --m 2 --depth 4",
    "expand --m 1 --N 0 --order 12 --no-cache",
    "expand --m 1 --N 1/2 --order 12 --no-cache",
    "expand --m 1 --N symbolic --order 12 --no-cache",
    "expand --m 2 --N 0 --order 8 --no-cache",
    "expand --m 2 --N symbolic --order 6 --no-cache --format json",
    "free-energy --m 1 --N 0 --order 12 --no-cache",
    "free-energy --m 1 --N 1/2 --order 12 --no-cache",
    "free-energy --m 1 --N symbolic --order 12 --no-cache",
    "free-energy --m 2 --N 0 --order 8 --no-cache",
    "free-energy --m 2 --N symbolic --order 6 --no-cache --format json",
    "schur --m 2 --N 1/3 --degree 8",
    "verify --suite ks --m 1 --N=-1/2 --depth 8",
    "verify --suite ks --m 2 --N symbolic --depth 8",
    "verify --suite constraints --m 3 --N symbolic --order 3",
    "verify --suite constraints,hirota --m 2 --N=-1/2 --order 6",
    "verify --suite hirota --m 1 --N symbolic --order 10",
    "verify --suite constraints,hirota --m 2 --N 7/13 --order 7",
    "verify --suite hirota,constraints --m 3 --N symbolic --order 3",
    "phi --m 1 --depth 16",
    "phi --m 4 --depth 6 --format json",
    "phi --m 3 --N 7/11 --j 2 --depth 8",
    "phi --m 2 --N symbolic --j 5 --depth 6",
    "schur --m 3 --N symbolic --degree 9",
    "verify --suite ks --m 1 --N 0 --depth 12",
    "verify --suite ks --m 2 --N 0 --depth 10",
    "verify --suite ks --m 2 --N=-1 --depth 8",
    "verify --suite ks --m 4 --N symbolic --depth 6",
    "phi --m 2 --j=-3 --depth 9",
    "phi --m 1 --j 1 --depth 20",
    "phi --m 5 --N=-1/2 --j 0 --depth 8 --format json",
    "expand --m 3 --N 7/11 --oracle --degree 12 --no-cache",
    "expand --m 4 --N symbolic --oracle --degree 8 --no-cache",
    "schur --m 1 --N symbolic --degree 10",
    "schur --m 2 --N 0 --degree 8 --points 14",
    "schur --m 4 --N 7/11 --degree 12 --format json",
    "expand --m 1 --N symbolic --oracle --degree 10 --no-cache",
    "expand --m 2 --N symbolic --oracle --degree 10 --no-cache",
    "verify --suite crosscheck --m 3 --order 3",
    "expand --m 3 --N 0 --oracle --degree 15 --no-cache",
    "expand --m 4 --N 7/11 --oracle --degree 16 --no-cache",
    "expand --m 3 --N symbolic --oracle --degree 12 --no-cache",
    "verify --suite crosscheck --m 4 --order 3",
    "verify --suite ks --m 3 --N 1 --depth 10",
    "verify --suite ks --m 1 --N 1/3 --depth 14",
    "verify --suite ks --m 2 --N 3/2 --depth 12",
    "verify --suite ks --m 4 --N=-2 --depth 8",
    "phi --m 3 --N 1/2 --j 4 --depth 10 --format json",
    "expand --m 2 --N 7/11 --order 9 --no-cache",
    "expand --m 1 --N=-9/13 --order 20 --no-cache",
    "expand --m 2 --N=-1 --order 10 --no-cache",
    "free-energy --m 2 --N symbolic --order 8 --no-cache",
    "verify --suite constraints --m 2 --N=-9/13 --order 9",
    "verify --suite constraints,hirota --m 1 --N 5/3 --order 14",
    "free-energy --m 1 --N symbolic --order 24 --no-cache",
    "free-energy --m 1 --N 0 --order 30 --no-cache",
    "free-energy --m 2 --N 7/11 --order 10 --no-cache",
    "verify --suite hirota --m 2 --N symbolic --order 10",
    "expand --m 2 --N 0 --order 16 --no-cache",
    "expand --m 1 --N symbolic --order 30 --no-cache",
    "expand --m 2 --N 7/11 --order 12 --no-cache",
    "verify --suite constraints,hirota --m 2 --N symbolic --order 10",
    "verify --suite constraints --m 2 --N symbolic --order 10",
    "verify --suite constraints --m 3 --order 4",
    "verify --suite ks --m 3 --N 7/11 --depth 20",
    "verify --suite ks --m 1 --N symbolic --depth 12",
    "verify --suite ks --m 2 --N=-5/13 --depth 20",
    "schur --m 5 --N=-5/13 --degree 15",
    "schur --m 3 --N symbolic --degree 12 --points 15",
    "expand --m 1 --N 7/11 --oracle --degree 12 --no-cache",
    "expand --m 2 --N=-3/13 --oracle --degree 14 --no-cache",
    "phi --m 1 --depth 24",
    "phi --m 3 --depth 12",
    "phi --m 6 --depth 10 --format json",
    "verify --suite ks --m 1 --N=-9/13 --depth 16",
    "verify --suite all --m 2 --order 5 --depth 6 --format json",
    "verify --suite golden-B --format json",
    "verify --suite constraints,hirota --m 3 --order 3 --format json",
    "free-energy --m 2 --N 0 --order 0 --no-cache",
    "free-energy --m 2 --N 0 --order 0 --no-cache --format json",
    "expand --m 3 --N 0 --oracle --degree 6 --no-cache --format json",
    "free-energy --m 3 --N 1/2 --oracle --order 2 --no-cache",
    "phi --m 2 --N symbolic --j 1 --depth 0 --format json",
    "schur --m 2 --N 0 --degree 0 --format json",
    "schur --m 2 --N 1/2 --degree 10",
    "expand --m 3 --N 1 --oracle --degree 12 --no-cache",
    "verify --suite ks --m 1 --N symbolic",
    "verify --suite ks --m 1 --N 1/2 --depth 8",
    "verify --suite ks --m 3 --N 0 --depth 3",
    "verify --suite ks --m 2 --N symbolic --depth 3",
    "-h",
    "expand -h",
    "free-energy -h",
    "phi -h",
    "schur -h",
    "verify -h",
    "cache -h",
)
WARM = (
    "expand --m 1 --N 0 --order 12 --no-cache",
    "expand --m 1 --N symbolic --order 30 --no-cache",
    "expand --m 2 --N 7/11 --order 12 --no-cache",
    "expand --m 2 --N symbolic --order 6 --no-cache --format json",
    "free-energy --m 1 --N symbolic --order 24 --no-cache",
    "free-energy --m 2 --N 7/11 --order 10 --no-cache",
    "free-energy --m 2 --N symbolic --order 8 --no-cache",
)


def run(command: str, *extra: str) -> dict:
    """{"sha256": digest of stdout, "exit": exit code} of one CLI command,
    extra arguments appended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    proc = subprocess.run([sys.executable, "-m", "bgwtau.cli", *command.split(), *extra],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE)
    return {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "exit": proc.returncode}


def warm_problems(command: str, want: dict) -> list[str]:
    """What is wrong with a cold store and a warm hit of command (a --no-cache
    command) in one fresh cache directory: a run whose digest or exit code
    differs from want, or a warm run that stored the file again."""
    out = []
    with tempfile.TemporaryDirectory() as cdir:
        cached = command.replace("--no-cache", "")
        cold = run(cached, "--cache-dir", cdir)
        stored = [p.stat() for p in Path(cdir).glob("*.tau")]
        warm = run(cached, "--cache-dir", cdir)
        after = [p.stat() for p in Path(cdir).glob("*.tau")]
        for name, got in (("cold", cold), ("warm", warm)):
            if got != want:
                out.append(f"{name} run got {got}, recorded {want}")
        if len(stored) != 1 or [(s.st_ino, s.st_mtime_ns) for s in stored] != \
                [(s.st_ino, s.st_mtime_ns) for s in after]:
            out.append("the warm run was not served from the stored file")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help=f"write {DIGESTS.name} instead of comparing")
    args = ap.parse_args(argv)
    got = {c: run(c) for c in COMMANDS}
    if args.record:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
        print(f"cli-digests: recorded {len(got)} commands in {DIGESTS.name}")
        return 0
    want = json.loads(DIGESTS.read_text())
    bad = [c for c in COMMANDS if got[c] != want.get(c)]
    for c in bad:
        print(f"cli-digests: {c}: got {got[c]}, recorded {want.get(c)}")
    warm_bad = 0
    for c in WARM:
        problems = warm_problems(c, want[c])
        warm_bad += bool(problems)
        for p in problems:
            print(f"cli-digests: warm {c}: {p}")
    ok = not bad and not warm_bad
    print(f"cli-digests: {'OK' if ok else 'FAIL'} ({len(COMMANDS) - len(bad)}/{len(COMMANDS)} match,"
          f" {len(WARM) - warm_bad}/{len(WARM)} warm hits match)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
