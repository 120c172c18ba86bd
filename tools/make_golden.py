#!/usr/bin/env python3
"""Regenerate the frozen golden reference tables in src/bgwtau/golden/.

Input: tools/source_tables.tex, a verbatim transcription of the source
displays (tau expansions, free energies, basis-vector coefficients, the
inline expansion), one display per block.  Every display is converted with
an exact rational LaTeX-term parser -- no floating point, no simplification
beyond collecting terms -- and serialized in the canonical text grammar.

Run from the repository root:  python tools/make_golden.py
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bgwtau.algebra import Coefficient, TimeMonomial, TimePolynomial, add_into, canonical_text
from bgwtau.rational import QQ

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "bgwtau" / "golden"

_TOKEN = re.compile(
    r"""\\frac\{\s*(-?\d+)\s*\}\{\s*(\d+)\s*\}   # 1,2: integer fraction
      | t_\{(\d+)\}(?:\^\{?(\d+)\}?)?            # 3,4: t with braced index
      | t_(\d)(?:\^\{?(\d+)\}?)?                 # 5,6: t with bare index
      | ([Njm])(?:\^\{?(\d+)\}?)?                # 7,8: N, j, m
      | \\hbar(?:\^\{?(\d+)\}?)?                 # 9: h
      | (\d+)                                    # 10: integer
      | ([()+\-])                                # 11: punctuation
      | (\s+|,|\.|\{|\})                         # 12: skipped
    """,
    re.VERBOSE,
)

# polynomial: dict (sorted tuple of (var, exp)) -> QQ; var is ("t", i) or "N"/"j"/"m"/"h"


def _pmul(a, b):
    out = {}
    for m1, q1 in a.items():
        for m2, q2 in b.items():
            d = dict(m1)
            for v, e in m2:
                d[v] = d.get(v, 0) + e
            key = tuple(sorted(d.items(), key=repr))
            q = out.get(key, 0) + q1 * q2
            if q:
                out[key] = q
            elif key in out:
                del out[key]
    return out


def _padd(a, b):
    out = dict(a)
    for m, q in b.items():
        s = out.get(m, 0) + q
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _const(q):
    return {(): QQ(q)} if q else {}


def _expand_fracs(body: str) -> str:
    """Rewrite \\frac{A}{B} with a non-integer numerator as (A) \\frac{1}{B}."""
    out = []
    i = 0
    while True:
        k = body.find("\\frac{", i)
        if k < 0:
            out.append(body[i:])
            return "".join(out)
        out.append(body[i:k])
        depth, p = 1, k + 6
        while depth:
            depth += {"{": 1, "}": -1}.get(body[p], 0)
            p += 1
        num = body[k + 6 : p - 1]
        if body[p] != "{":
            raise ValueError("malformed fraction")
        q = body.index("}", p)
        den = body[p + 1 : q]
        if re.fullmatch(r"\s*-?\d+\s*", num):
            out.append(f"\\frac{{{num}}}{{{den}}}")
        else:
            out.append(f"({num}) \\frac{{1}}{{{den}}}")
        i = q + 1


def parse_display(src: str):
    """Parse the right-hand side of a display into a var-exponent polynomial."""
    body = src.split("=", 1)[1]
    body = body.replace("+O(\\hbar^4)", "")
    body = _expand_fracs(body)
    toks = []
    pos = 0
    for mt in _TOKEN.finditer(body):
        if mt.start() != pos:
            raise ValueError(f"untokenizable at {body[pos:pos+25]!r}")
        pos = mt.end()
        g = mt.groups()
        if g[0] is not None:
            toks.append(("rat", QQ(int(g[0]), int(g[1]))))
        elif g[2] is not None or g[4] is not None:
            idx = int(g[2] or g[4])
            exp = int(g[3] or g[5] or 1)
            toks.append(("var", (("t", idx), exp)))
        elif g[6] is not None:
            toks.append(("var", ((g[6],), int(g[7] or 1))))
        elif mt.group(0).startswith("\\hbar"):
            toks.append(("var", (("h",), int(g[8] or 1))))
        elif g[9] is not None:
            toks.append(("rat", QQ(int(g[9]))))
        elif g[10] is not None:
            toks.append((g[10], None))
    if pos != len(body):
        raise ValueError(f"trailing junk {body[pos:pos+25]!r}")

    def parse_expr(i):
        acc = _const(0)
        sign = 1
        if i < len(toks) and toks[i][0] in "+-":
            sign = -1 if toks[i][0] == "-" else 1
            i += 1
        while True:
            term, i = parse_product(i)
            if sign < 0:
                term = {m: -q for m, q in term.items()}
            acc = _padd(acc, term)
            if i < len(toks) and toks[i][0] in "+-":
                sign = -1 if toks[i][0] == "-" else 1
                i += 1
            else:
                return acc, i

    def parse_product(i):
        acc = _const(1)
        got = False
        while i < len(toks):
            kind, val = toks[i]
            if kind == "rat":
                acc = _pmul(acc, _const(val))
                i += 1
            elif kind == "var":
                var, exp = val
                acc = _pmul(acc, {((var, exp),): QQ(1)})
                i += 1
            elif kind == "(":
                inner, i = parse_expr(i + 1)
                if i >= len(toks) or toks[i][0] != ")":
                    raise ValueError("unbalanced parenthesis")
                acc = _pmul(acc, inner)
                i += 1
            else:
                break
            got = True
        if not got:
            raise ValueError(f"empty product at token {i}")
        return acc, i

    poly, i = parse_expr(0)
    if i != len(toks):
        raise ValueError(f"parse stopped at token {i} of {len(toks)}")
    return poly


def to_time_polynomial(poly, m_value=None) -> TimePolynomial:
    """Convert a parsed polynomial (vars t_i, N, j, m, h) to a TimePolynomial;
    m, if present, must be bound to an integer."""
    out = TimePolynomial.zero()
    for mono, q in poly.items():
        tvars: dict[int, int] = {}
        n = j = h = 0
        for var, e in mono:
            if var[0] == "t":
                tvars[var[1]] = tvars.get(var[1], 0) + e
            elif var[0] == "N":
                n += e
            elif var[0] == "j":
                j += e
            elif var[0] == "h":
                h += e
            elif var[0] == "m":
                if m_value is None:
                    raise ValueError("unbound m")
                q = q * QQ(m_value) ** e
        mono = TimeMonomial(sorted((k, e) for k, e in tvars.items() if e))
        add_into(out.terms, mono, Coefficient.monomial(q, h=h, n=n, j=j))
    return out


def load_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    label = None
    for line in (Path(__file__).parent / "source_tables.tex").read_text().splitlines():
        if line.startswith("%%"):
            label = line[2:].strip()
        elif label and not line.startswith("%"):
            blocks[label] = line.strip()
            label = None
    return blocks


def main() -> None:
    blocks = load_blocks()
    GOLDEN.mkdir(exist_ok=True)
    files: dict[str, list[str]] = {
        "appendix_a.txt": ["# basis-vector coefficient polynomials in j"],
        "appendix_b.txt": ["# topological expansion, m=2, N=0"],
        "appendix_c.txt": ["# topological expansion and free energies, m=2, symbolic N"],
        "inline.txt": ["# first orders of the m=2 expansion quoted in the running text"],
    }

    for k in range(1, 10):
        p = to_time_polynomial(parse_display(blocks[f"B{k}"]))
        files["appendix_b.txt"].append(f"tau2[{k}] = {canonical_text(p)}")
    for k in range(1, 6):
        p = to_time_polynomial(parse_display(blocks[f"C{k}"]))
        files["appendix_c.txt"].append(f"tauN[{k}] = {canonical_text(p)}")
    for k in range(1, 7):
        p = to_time_polynomial(parse_display(blocks[f"F{k}"]))
        files["appendix_c.txt"].append(f"F[{k}] = {canonical_text(p)}")
    for k in range(1, 5):
        p = to_time_polynomial(parse_display(blocks[f"A2_{k}"]))
        files["appendix_a.txt"].append(f"Phi2[{k}] = {canonical_text(p)}")
    for mv in range(1, 6):
        for k in range(1, 5):
            p = to_time_polynomial(parse_display(blocks[f"Am_{k}"]), m_value=mv)
            files["appendix_a.txt"].append(f"PhiGen[m={mv},k={k}] = {canonical_text(p)}")
    inline = to_time_polynomial(parse_display(blocks["INLINE"])).h_parts()
    for k in range(1, 4):
        files["inline.txt"].append(f"inline[{k}] = {canonical_text(inline[k])}")

    sums = []
    for name, lines in files.items():
        body = "\n".join(lines) + "\n"
        (GOLDEN / name).write_text(body)
        digest = hashlib.sha256(body.encode()).hexdigest()
        sums.append(f"{digest}  {name}")
        print(f"wrote {name}: {len(lines) - 1} entries")
    (GOLDEN / "SHA256SUMS").write_text("\n".join(sorted(sums)) + "\n")
    print("wrote SHA256SUMS")


if __name__ == "__main__":
    main()
