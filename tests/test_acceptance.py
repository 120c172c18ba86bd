"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Criteria 1 and 2 compare against the frozen verbatim source tables.  Four
entries of the order-6..9 m=2 table and the t1*t11 slot of the sixth free
energy are defective in the source (they violate the source's own
constraints; three independent computations agree on the correct values --
see README "Known source-data discrepancies" and tests/test_verify.py).
Those comparisons are asserted as stated and fail honestly.
"""

import time

import pytest

from conftest import coefficient
from bgwtau.algebra import canonical_text, parse_polynomial
from bgwtau.cutjoin import check_expansion_invariants, tau_expand
from bgwtau.rational import QQ
from bgwtau.schur import plucker_expansion, tau_from_schur
from bgwtau.verify import (
    constraint_suite,
    golden_suite,
    hirota_suite,
    load_golden,
    verify_checksums,
)
from bgwtau.zcalculus import (
    check_canonical_pair,
    check_commutation,
    check_ks_actions,
    check_spectral_curve,
    phi_coefficients,
)


def _finish(name: str, rep, budget: float | None, elapsed: float):
    for line in rep.lines():
        print(line)
    status = "PASS" if rep.ok else "FAIL"
    print(f"{status} {name} ({len(rep.cases)} cases, {elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded {budget}s budget"
    if not rep.ok:
        lines = "\n".join(c.line() for c in rep.failures)
        pytest.fail(f"{name}: {len(rep.failures)} case(s) failed\n{lines}")


def test_criterion_1_appendix_b_reproduction():
    t0 = time.perf_counter()
    rep = golden_suite("AppendixB")
    _finish("criterion-1 (order 1..9 table reproduction)", rep, 30.0,
            time.perf_counter() - t0)


def test_criterion_2_appendix_c_reproduction():
    t0 = time.perf_counter()
    rep = golden_suite("AppendixC")  # computes K=6; compares tauN 1..5, F 1..6
    _finish("criterion-2 (symbolic-N table and free energies)", rep, 60.0,
            time.perf_counter() - t0)


def test_criterion_3_appendix_a_reproduction():
    t0 = time.perf_counter()
    rep = golden_suite("AppendixA")
    # additionally the m=1 factorial pattern (-1)^k a_k(j)/(8^k k!)
    from bgwtau.algebra import Coefficient

    coeffs = phi_coefficients(1, 4)
    jm1 = Coefficient.monomial(1, j=1) - Coefficient.rational(1)
    base = (jm1 * jm1).scale(4)
    acc = Coefficient.one()
    fact = 1
    for k in range(1, 5):
        fact *= k
        acc = acc * (base - Coefficient.rational((2 * k - 1) ** 2))
        rep.add("golden-A", f"m=1 factorial pattern k={k}",
                coeffs[k] == acc.scale(QQ((-1) ** k, 8 ** k * fact)))
    _finish("criterion-3 (basis-vector coefficients)", rep, 10.0,
            time.perf_counter() - t0)


def test_criterion_4_inline_expansion_bytes():
    t0 = time.perf_counter()
    rep = golden_suite("Inline")
    T = tau_expand(2, 0, 3)
    golden = load_golden("Inline")
    for k in range(1, 4):
        rep.add(
            "golden-inline", f"bytes[{k}]",
            canonical_text(T.coeffs[k]) == canonical_text(golden.entries[f"inline[{k}]"]),
        )
    _finish("criterion-4 (inline expansion, byte-for-byte)", rep, None,
            time.perf_counter() - t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    from bgwtau.report import Report

    rep = Report()
    for m, N in ((1, 0), (1, QQ(1, 2)), (2, 0), (2, "symbolic")):
        O = tau_from_schur(plucker_expansion(m, N, 10))
        R = tau_expand(m, N, 10 // m)
        for k in range(10 // m + 1):
            rep.add(f"oracle-equivalence[m={m},N={N}]", f"tau[{k}]",
                    O.coeffs[k] == R.coeffs[k])
    _finish("criterion-5 (determinant oracle equals recursion, degree 10)",
            rep, 300.0, time.perf_counter() - t0)


def test_criterion_6_constraint_annihilation():
    t0 = time.perf_counter()
    from bgwtau.report import Report

    rep = Report()
    rep.extend(constraint_suite(2, 0, tau_expand(2, 0, 9)))
    rep.extend(constraint_suite(2, "symbolic", tau_expand(2, "symbolic", 5)))
    rep.extend(constraint_suite(1, 0, tau_expand(1, 0, 8)))
    rep.extend(constraint_suite(3, 0, tau_from_schur(plucker_expansion(3, 0, 9))))
    _finish("criterion-6 (W3 constraints annihilate tau)", rep, None,
            time.perf_counter() - t0)


def test_criterion_7_ks_identity_suite():
    t0 = time.perf_counter()
    from bgwtau.report import Report

    rep = Report()
    for m in (1, 2, 3):
        for N in (0, "symbolic"):
            rep.extend(check_ks_actions(m, N, 4, 30))
            rep.extend(check_commutation(m, N, 30))
            rep.extend(check_spectral_curve(m, N, 4, 20))
            if m >= 2:
                rep.extend(check_canonical_pair(m, N, 20))
    _finish("criterion-7 (Kac-Schwarz identity suite)", rep, None,
            time.perf_counter() - t0)


def test_criterion_8_hirota():
    t0 = time.perf_counter()
    from bgwtau.report import Report

    rep = Report()
    rep.extend(hirota_suite(tau_expand(1, 0, 6)))
    rep.extend(hirota_suite(tau_expand(2, 0, 6)))
    rep.extend(hirota_suite(tau_expand(2, "symbolic", 4)))
    _finish("criterion-8 (first Hirota bilinear identity)", rep, None,
            time.perf_counter() - t0)


def test_criterion_9_structural_invariants():
    t0 = time.perf_counter()
    from bgwtau.report import Report

    rep = Report()
    rep.extend(verify_checksums())
    rep.extend(check_expansion_invariants(tau_expand(2, 0, 9)))
    rep.extend(check_expansion_invariants(tau_expand(1, 0, 8)))
    rep.extend(check_expansion_invariants(tau_from_schur(plucker_expansion(3, 0, 9))))
    # Phi parity/reality: h-power k and z-step -mk only, rational after j-binding
    from bgwtau.zcalculus import phi_series

    for m in (1, 2, 3):
        s = phi_series(m, 3, 5)
        clean = all(
            n == 2 - m * (k := (2 - n) // m) and c.h_part(k).times_h(k) == c
            for n, c in s.coeffs.items()
        )
        rep.add("phi-structure", f"m={m}", clean)
    # oracle M-stability
    a = plucker_expansion(2, 0, 6)
    b = plucker_expansion(2, 0, 6, points=9)
    stable = all(coefficient(b, mu) == c for mu, c in a.table.items()) and all(
        coefficient(a, mu) == c for mu, c in b.table.items() if sum(mu) <= 6
    )
    rep.add("oracle", "M-stability", stable)
    # mutation controls: seeded corruption must trip the suites
    bad = tau_expand(2, 0, 4)
    bad.coeffs[2] = bad.coeffs[2] + parse_polynomial("1/7*t1^4")
    rep.add("mutation", "constraints trip", not constraint_suite(2, 0, bad).ok)
    rep.add("mutation", "hirota trips", not hirota_suite(bad).ok)
    bad2 = tau_expand(2, 0, 3)
    bad2.coeffs[2] = bad2.coeffs[2] + parse_polynomial("1/7*t3^2")
    rep.add("mutation", "reduction trips", not check_expansion_invariants(bad2).ok)
    _finish("criterion-9 (structural invariants and mutation controls)", rep,
            None, time.perf_counter() - t0)
