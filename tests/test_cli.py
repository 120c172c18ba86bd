"""Command line front end: output determinism, exit codes, cache behavior."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bgwtau import cli
from bgwtau.cli import _cache_header, _cache_path, cache_load, cache_store, main, parse_n
from bgwtau.cutjoin import tau_expand
from bgwtau.rational import QQ
from bgwtau.report import Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_symbolic_order1(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--m", "2", "--N", "symbolic", "--order", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out.splitlines()[1] == "tau[1] = -1/2*N*t1^2-1/1*N^2*t2+1/3*t2"


def test_expand_deterministic_bytes(tmp_path, capsys):
    args = ("expand", "--m", "2", "--N", "0", "--order", "4", "--format", "json",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)  # second run hits the cache
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["coeffs"][1] == "1/3*t2"
    assert doc["m"] == 2


def test_expand_oracle_m3(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--m", "3", "--N", "0", "--degree", "6", "--oracle",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "tau[1] = -1/6*t1^3+5/8*t3" in out


def test_expand_m3_without_oracle_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "expand", "--m", "3", "--N", "0", "--order", "2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert "oracle" in err


def test_oracle_expansion_failing_its_invariants_exits_1(capsys, monkeypatch):
    failing = Report()
    failing.add("expansion-invariants", "forced", False)
    monkeypatch.setattr(cli, "check_expansion_invariants", lambda T: failing)
    code, out, err = run_cli(capsys, "expand", "--m", "3", "--oracle", "--degree", "3")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: oracle expansion failed invariant checks"]


def test_expand_degree_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "expand", "--m", "3", "--oracle", "--degree", "0",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "tau[0] = 1/1\n"


@pytest.mark.parametrize("argv", [
    ("expand", "--order", "-1"),
    ("expand", "--m", "-1", "--oracle"),
    ("phi", "--m", "0"),
    ("schur", "--degree", "6", "--points", "3"),
    ("expand", "--m", "2", "--degree", "5"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, BGWTAU_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "bgwtau.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert any("error:" in line for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def test_free_energy(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "free-energy", "--m", "2", "--N", "symbolic", "--order", "2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F[1] = -1/2*N*t1^2-1/1*N^2*t2+1/3*t2"


def test_phi_symbolic(capsys):
    code, out, _ = run_cli(capsys, "phi", "--m", "2", "--depth", "1")
    assert code == 0
    assert "phi[m=2,k=1] = -1/2*j^2+3/2*j-5/6" in out


def test_phi_concrete_j(capsys):
    code, out, _ = run_cli(capsys, "phi", "--m", "2", "--N", "symbolic",
                           "--j", "1", "--depth", "1")
    assert code == 0
    assert "z^-2: -1/2*h*N^2-1/2*h*N+1/6*h" in out


def test_phi_at_a_very_large_m_finishes():
    """The exp-table constants (m+l-1)!/((m+1)! l!) are products of l-2
    factors, not ratios of factorials of m: at m = 10^9 the table is built at
    once.  Run in a subprocess, so a slow build fails by its timeout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "bgwtau.cli", "phi", "--m", "1000000000", "--depth", "2"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert "phi[m=1000000000,k=1] = -1/2*j^2+1000000001/2*j-333333334166666667/4" in proc.stdout


def test_schur_lines(capsys):
    code, out, _ = run_cli(capsys, "schur", "--m", "2", "--N", "0", "--degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C[] = 1/1"
    assert "C[1,1] = -1/6*h" in lines
    assert "C[2] = 1/6*h" in lines


def test_schur_many_points_matches_few_points(capsys):
    # 1100 columns: deeper than the interpreter's recursion limit
    args = ("schur", "--m", "2", "--N", "0", "--degree", "4", "--points")
    code, many, _ = run_cli(capsys, *args, "1100")
    assert code == 0
    assert many == run_cli(capsys, *args, "4")[1]


def _by_partition(row):
    """(|mu|, mu) of a schur text row ("C[2,1]", ...): the order schur prints."""
    mu = tuple(int(p) for p in row[0][2:-1].split(",") if p)
    return sum(mu), mu


# each command with the (label, right-hand side) rows its text lines must
# spell, in order, from the strings of its --format json document
TEXT_ROWS_OF_JSON = [
    (("expand", "--m", "2", "--N", "1/3", "--order", "5", "--no-cache"),
     lambda d: [(f"tau[{k}]", s) for k, s in enumerate(d["coeffs"])]),
    (("expand", "--m", "3", "--N", "symbolic", "--oracle", "--degree", "6"),
     lambda d: [(f"tau[{k}]", s) for k, s in enumerate(d["coeffs"])]),
    (("free-energy", "--m", "1", "--N", "symbolic", "--order", "5", "--no-cache"),
     lambda d: [(f"F[{k}]", s) for k, s in enumerate(d["free_energy"], start=1)]),
    (("phi", "--m", "3", "--depth", "5"),
     lambda d: [(f"phi[m=3,k={k}]", f"{d['coeffs'][f'z^-{3 * k}']}   # * h^{k} z^-{3 * k}")
                for k in range(len(d["coeffs"]))]),
    (("phi", "--m", "2", "--N", "symbolic", "--j", "3", "--depth", "6"),
     lambda d: sorted(d["series"].items(), key=lambda kv: -int(kv[0][2:]))
     + [("floor", f"z^{d['floor']}")]),
    (("schur", "--m", "2", "--N", "7/11", "--degree", "6"),
     lambda d: sorted(((f"C{key}", s) for key, s in d["coefficients"].items()), key=_by_partition)),
]


@pytest.mark.parametrize("argv, rows", TEXT_ROWS_OF_JSON,
                         ids=[" ".join(argv) for argv, _ in TEXT_ROWS_OF_JSON])
def test_text_lines_spell_the_json_strings(capsys, argv, rows):
    code, text, _ = run_cli(capsys, *argv)
    json_code, doc, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    got = [tuple(re.split(" = |: ", line, maxsplit=1)) for line in text.splitlines()]
    assert got == rows(json.loads(doc))
    assert len(got) > 2


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden-inline")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    code, _, err = run_cli(capsys, "verify", "--suite", "constra ints")
    assert code == 2
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden-B", "--format", "json")
    assert code == 1  # defective source entries are honestly reported
    summary = json.loads(out.splitlines()[-1])
    assert summary["failed"] == 4


@pytest.mark.parametrize("suites", ["constraints,crosscheck", "invariants,crosscheck",
                                    "crosscheck,invariants,constraints"])
def test_verify_m3_runs_each_oracle_check_once(capsys, monkeypatch, suites):
    """Without a recursion, crosscheck is the oracle's invariant and
    constraint checks: selecting it beside them must not repeat them."""
    import bgwtau.verify as verify

    calls = []
    suite = verify.constraint_suite
    monkeypatch.setattr(verify, "constraint_suite", lambda *a: calls.append(a) or suite(*a))
    code, out, _ = run_cli(capsys, "verify", "--suite", suites, "--m", "3", "--order", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == len(set(lines))
    assert any("constraints[m=3,N=0]" in line for line in lines)
    assert any("expansion-invariants" in line for line in lines)
    assert len(calls) == 1


def test_verify_all_m3_reports_every_suite(capsys):
    """At m >= 3 every suite runs (hirota on the oracle) and only the five
    defective source-table entries fail, as at m = 2."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--m", "3", "--order", "3",
                           "--depth", "6")
    lines = out.splitlines()
    assert code == 1
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "golden-B:tau2[6]", "golden-B:tau2[7]", "golden-B:tau2[8]", "golden-B:tau2[9]",
        "golden-C:F[6]"]
    assert any(line.startswith("PASS hirota[m=3,N=0]") for line in lines)
    assert any(line.startswith("PASS ks-actions[m=3,N=0]") for line in lines)
    assert len(lines) == len(set(lines))


def test_cache_round_trip(tmp_path):
    T = tau_expand(2, 0, 5)
    cache_store(T, tmp_path)
    loaded = cache_load(2, 0, 5, tmp_path)
    assert loaded is not None
    assert loaded.coeffs == T.coeffs


@pytest.mark.parametrize("m, N, K", [(1, "symbolic", 12), (2, QQ(7, 11), 6)])
def test_cache_round_trip_of_long_coefficients(tmp_path, m, N, K):
    """Entries whose monomials carry many atoms (symbolic N: up to 13 over
    a 20-digit denominator) or large rational denominators."""
    T = tau_expand(m, N, K)
    cache_store(T, tmp_path)
    loaded = cache_load(m, N, K, tmp_path)
    assert loaded is not None
    assert loaded.coeffs == T.coeffs
    if N == "symbolic":
        assert max(len(c.terms) for p in T.coeffs for c in p.terms.values()) > 10


def test_cache_rejects_corruption(tmp_path):
    T = tau_expand(2, QQ(1, 2), 3)
    path = cache_store(T, tmp_path)
    body = path.read_bytes()
    k = body.index(b"t2")
    path.write_bytes(body[:k] + b"t3" + body[k + 2:])
    assert cache_load(2, QQ(1, 2), 3, tmp_path) is None


def test_cache_rejects_invariant_violation(tmp_path):
    """A well-checksummed file whose body violates the expansion invariants
    must be refused (checksum recomputed to make the corruption silent)."""
    import hashlib

    T = tau_expand(2, 0, 3)
    path = cache_store(T, tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "1/3*t3"  # violates the 3-reduction
    digest = hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest()
    lines[-1] = f"checksum={digest}"
    path.write_text("\n".join(lines) + "\n")
    assert cache_load(2, 0, 3, tmp_path) is None


def test_cache_recomputes_non_utf8_file(tmp_path):
    path = cache_store(tau_expand(2, 0, 3), tmp_path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    assert cache_load(2, 0, 3, tmp_path) is None


def write_unparseable_entry(directory: Path, m: int, N, K: int, line: str) -> None:
    """A cache file for (m, N, K) whose checksum matches its own body, every
    body line of which is line."""
    header = _cache_header(m, N, K)
    text = "\n".join([header] + [line] * (K + 1))
    digest = hashlib.sha256(text.encode()).hexdigest()
    _cache_path(directory, header).write_text(f"{text}\nchecksum={digest}\n")


@pytest.mark.parametrize("line", ["1/0*t1", "t1^", "+-1*t1", "1--2*t1", "1-+2", "1+", "1*t1^0",
                                  "1*N^-1", "1*t1^+2", "1*t0"])
def test_cache_entry_that_does_not_parse_is_a_miss(tmp_path, capsys, line):
    write_unparseable_entry(tmp_path, 1, QQ(0), 2, line)
    assert cache_load(1, QQ(0), 2, tmp_path) is None
    args = ("expand", "--m", "1", "--order", "2")
    _, want, _ = run_cli(capsys, *args, "--no-cache")
    assert run_cli(capsys, *args, "--cache-dir", str(tmp_path)) == (0, want, "")
    assert cache_load(1, QQ(0), 2, tmp_path) is not None  # recomputed and stored


def test_cache_store_uses_a_private_temporary_file(tmp_path):
    """A second writer's fixed-name temporary file (here a directory in its
    way) must not disturb a store; nothing is left behind."""
    T = tau_expand(2, 0, 3)
    path = cache_store(T, tmp_path)
    path.unlink()
    path.with_suffix(".tmp").mkdir()
    assert cache_store(T, tmp_path) == path
    assert cache_load(2, 0, 3, tmp_path).coeffs == T.coeffs
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, path.stem + ".tmp"])


def test_cache_list_survives_empty_file(tmp_path, capsys):
    (tmp_path / "0123.tau").write_bytes(b"")
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.startswith("0123.tau: ")


def test_cache_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cache", "dir", "--cache-dir", str(tmp_path))
    assert code == 0 and str(tmp_path) in out
    run_cli(capsys, "expand", "--m", "1", "--N", "0", "--order", "2",
            "--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert "m=1" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(tmp_path))
    assert out.strip() == ""


# an unusable cache directory is a miss and a skipped store; the result
# still prints with exit 0


def _plain_expand(capsys, *argv):
    return run_cli(capsys, "expand", "--m", "2", "--N", "0", "--order", "3", *argv)


def test_expand_with_a_regular_file_as_cache_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    _, want, _ = _plain_expand(capsys, "--no-cache")
    assert _plain_expand(capsys, "--cache-dir", str(blocker)) == (0, want, "")
    assert blocker.read_text() == "not a directory"


def test_free_energy_with_a_cache_dir_below_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ("free-energy", "--m", "1", "--N", "1/3", "--order", "4")
    _, want, _ = run_cli(capsys, *args, "--no-cache")
    assert run_cli(capsys, *args, "--cache-dir", str(blocker / "sub")) == (0, want, "")


def test_expand_with_a_regular_file_as_cache_dir_from_the_environment(
        tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _, want, _ = _plain_expand(capsys, "--no-cache")
    monkeypatch.setenv("BGWTAU_CACHE_DIR", str(blocker))
    assert _plain_expand(capsys) == (0, want, "")


@pytest.mark.parametrize("command", ["expand", "free-energy"])
def test_cache_dir_with_an_embedded_nul(capsys, command):
    args = (command, "--m", "1", "--N", "1/3", "--order", "3")
    _, want, _ = run_cli(capsys, *args, "--no-cache")
    assert run_cli(capsys, *args, "--cache-dir", "a\x00b") == (0, want, "")


@pytest.mark.parametrize("action", ["list", "clear"])
def test_cache_maintenance_on_a_regular_file_exits_2(tmp_path, capsys, action):
    blocker = tmp_path / "file.tau"
    blocker.write_text("keep")
    code, out, err = run_cli(capsys, "cache", action, "--cache-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert blocker.read_text() == "keep"


def test_cache_clear_that_cannot_remove_an_entry_exits_2(tmp_path, capsys):
    (tmp_path / "0123.tau").mkdir()
    code, out, err = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot remove ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("expand", "--m", "1", "--order", "3", "--no-cache"),
    ("free-energy", "--m", "2", "--order", "3", "--no-cache"),
    ("phi", "--m", "2", "--j", "2", "--depth", "3"),
    ("schur", "--m", "2", "--degree", "4"),
    ("verify", "--suite", "constraints,ks", "--m", "1", "--order", "4", "--depth", "3"),
])
@pytest.mark.parametrize("n", ["-1/2", "-3/2", "-3"])
def test_negative_n_reads_the_same_spaced_or_with_equals(capsys, argv, n):
    """argparse took a spaced "-1/2" for an option and exited 2."""
    spaced = run_cli(capsys, *argv, "--N", n)
    assert spaced == run_cli(capsys, *argv, f"--N={n}")
    assert spaced[0] == 0 and spaced[1]


def test_n_reads_the_fraction_grammar(capsys):
    """--N reads any string fractions.Fraction reads: "1e3" and "1_000" give
    the output of "1000", and " 1/2" that of "1/2"."""
    expand = ("expand", "--m", "2", "--order", "2", "--no-cache")
    want = {text: run_cli(capsys, *expand, "--N", text) for text in ("1000", "1/2")}
    assert all(code == 0 and out for code, out, _ in want.values())
    for text, value in (("1e3", "1000"), ("1_000", "1000"), (" 1/2", "1/2")):
        assert run_cli(capsys, *expand, "--N", text) == want[value], text


# "never a traceback": every argv of the CLI grammar, drawn with tiny values
# (order <= 3, degree <= 6, depth <= 4), ends in a result (0 or 1) or a usage
# error (2); nothing else is raised and no traceback is printed

JUNK = ("", "x", "1/0", "-1", "2.5", "1e3")
POOLS = {
    "--m": ("0", "1", "2", "3", "4"),
    "--N": ("0", "1/2", "-2/3", "-1/2", "-3/2", "-1/0", "3", "symbolic", "nan", "inf", "1/-2"),
    "--order": ("0", "1", "2", "3"),
    "--degree": ("0", "1", "2", "4", "6"),
    "--depth": ("0", "1", "2", "4"),
    "--points": ("0", "2", "6", "8"),
    "--j": ("-2", "0", "1", "3", "symbolic"),
    "--format": ("text", "json", "yaml"),
    "--suite": ("all", "checksums", "golden-A", "golden-B", "golden-C", "golden-inline",
                "constraints", "hirota", "crosscheck", "ks", "invariants",
                "constraints,hirota", "ks,all", ",", " "),
    "--cache-dir": ("DIR", "FILE", "MISSING", "FILE/sub", "NUL", "UNPARSEABLE"),
    "--oracle": None,
    "--no-cache": None,
}
COMMON = ("--m", "--N", "--format")
GRAMMAR = {
    "expand": COMMON + ("--order", "--cache-dir", "--no-cache", "--degree", "--oracle"),
    "free-energy": COMMON + ("--order", "--cache-dir", "--no-cache", "--oracle"),
    "phi": COMMON + ("--j", "--depth"),
    "schur": COMMON + ("--degree", "--points"),
    "verify": COMMON + ("--order", "--suite", "--depth"),
    "cache": ("--cache-dir",),
}
# the defaults --order 6 and --depth 20 are not tiny: always pass them
COSTLY_DEFAULTS = {"expand": ("--order",), "free-energy": ("--order",),
                   "verify": ("--order", "--depth")}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR) + ["bogus", "-h", "--help", "--", ""]))
    argv = [command]
    if command == "cache":
        argv.append(draw(st.sampled_from(("dir", "list", "clear", "purge"))))
    flags = draw(st.lists(st.sampled_from(GRAMMAR.get(command, ("--m",))), unique=True))
    flags += [f for f in COSTLY_DEFAULTS.get(command, ()) if f not in flags]
    for flag in flags:
        argv.append(flag)
        if POOLS[flag] is not None:
            argv.append(draw(st.sampled_from(POOLS[flag] + JUNK)))
    argv += draw(st.lists(st.sampled_from(("--bogus", "extra", "--m", "-h")), max_size=1))
    return argv


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Placeholder -> path: a cache directory, a regular file, a missing
    path, a path below a file, one with an embedded NUL, and a directory of
    entries that do not parse (see fill_unparseable).  The environment's
    cache is private too, and junk relative cache paths land in the
    temporary directory."""
    root = tmp_path_factory.mktemp("cli-grammar")
    (root / "DIR").mkdir()
    (root / "UNPARSEABLE").mkdir()
    (root / "FILE").write_text("not a directory")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BGWTAU_CACHE_DIR", str(root / "env-cache"))
        mp.chdir(root)
        yield {p: str(root / p.replace("NUL", "a\x00b")) for p in POOLS["--cache-dir"]}


def fill_unparseable(directory: str) -> None:
    """(Re)write an entry that does not parse for each (m, N, K) the grammar
    can ask the cache for: a miss stores a good entry over it."""
    for m in (1, 2):
        for N in ("0", "1/2", "-2/3", "-1/2", "-3/2", "3", "symbolic"):
            for K in range(7):
                write_unparseable_entry(Path(directory), m, parse_n(N), K, ("1/0*t1", "t1^")[K % 2])


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


USAGE = json.loads(Path(__file__).with_name("cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_error_text(monkeypatch, case):
    """The exact stdout, stderr and exit code of every help page and of the
    usage errors, recorded when main built all six subparsers on every call;
    the two errors main reports itself, and the unrecognized arguments after
    a subcommand, were re-recorded when main began to report them through
    the subcommand's parser, and -x when main began to name an unrecognized
    argument before any subcommand; "expand --order 1 -- z" was recorded when
    main began to drop the "--" after a subcommand.  COLUMNS fixes argparse's
    wrap width."""
    monkeypatch.setenv("COLUMNS", "80")
    want = tuple("".join(line + "\n" for line in case[k]) for k in ("stdout", "stderr"))
    assert run_in_process(case["argv"]) == (case["exit"], *want)


def registered(ap) -> list[str]:
    """The subcommands ap parses: those whose "<command> -h" prints help."""
    out = []
    for command in GRAMMAR:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                ap.parse_args([command, "-h"])
            except SystemExit as exc:
                if exc.code == 0:
                    out.append(command)
    return out


@pytest.mark.parametrize("argv, want", [
    (["expand", "--m", "1"], ["expand"]),
    (["cache", "dir"], ["cache"]),
    ([], list(GRAMMAR)),
    (["-h"], list(GRAMMAR)),
    (["bogus"], list(GRAMMAR)),
])
def test_parser_configures_only_the_named_subcommand(argv, want):
    assert registered(cli.build_parser(argv)) == want


@pytest.mark.parametrize("argv", [
    ("expand", "--order", "1", "--no-cache"),
    ("phi", "--m", "2", "--depth", "2"),
    ("cache", "dir", "--cache-dir", "DIR"),
])
def test_a_trailing_double_dash_after_a_subcommand_changes_nothing(capsys, tmp_path, argv):
    """argparse leaves the "--" in the unrecognized arguments; main once
    reported it as a usage error after every subcommand but cache."""
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    want = run_cli(capsys, *argv)
    assert want[0] == 0 and want[1]
    assert run_cli(capsys, *argv, "--") == want


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bgwtau", "cache", "dir", "--cache-dir", str(tmp_path)])
    assert main() == 0
    assert capsys.readouterr().out == f"{tmp_path}\n"


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
# inputs that crashed before: a cache directory below a regular file, cache
# maintenance on a regular file, a Miwa-point count below the degree, and a
# cache directory with an embedded NUL
@example(["free-energy", "--m", "1", "--order", "2", "--cache-dir", "FILE/sub"])
@example(["expand", "--m", "1", "--order", "1", "--cache-dir", "NUL"])
@example(["cache", "clear", "--cache-dir", "FILE"])
@example(["schur", "--degree", "6", "--points", "2"])
@example(["expand", "--m", "1", "--order", "2", "--cache-dir", "UNPARSEABLE"])
def test_cli_never_prints_a_traceback(cli_paths, argv):
    if "UNPARSEABLE" in argv:
        fill_unparseable(cli_paths["UNPARSEABLE"])
    argv = [cli_paths.get(a, a) for a in argv]
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
