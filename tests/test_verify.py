"""Verification suites: golden tables, constraints, Hirota, cross-checks,
mutation controls, and the characterization of the defective source-table
entries (see notes in the README)."""

from pathlib import Path

import pytest

from bgwtau.algebra import (
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    parse_polynomial,
    substitute,
)
from bgwtau.cutjoin import check_expansion_invariants, free_energy, tau_expand, w1_w2
from bgwtau.operators import virasoro
from bgwtau.rational import QQ
from bgwtau.schur import plucker_expansion, tau_from_schur
from bgwtau.verify import (
    SUITE_RUNNERS,
    constraint_suite,
    crosscheck_suite,
    golden_suite,
    hirota_suite,
    load_golden,
    run_suites,
    verify_checksums,
)

P = parse_polynomial


def test_checksums():
    assert verify_checksums().ok


def test_golden_appendix_a():
    assert golden_suite("AppendixA").ok


def test_golden_inline():
    assert golden_suite("Inline").ok


def test_golden_appendix_b_clean_region():
    rep = golden_suite("AppendixB", order=5)
    assert rep.ok, [c.line() for c in rep.failures]


def test_golden_appendix_b_defective_region():
    """The k=6..9 source tables are internally inconsistent with the source's
    own constraints (see test_defect_is_constraint_forced below); the suite
    must report exactly those entries."""
    rep = golden_suite("AppendixB")
    failed = {c.name for c in rep.failures}
    assert failed == {"tau2[6]", "tau2[7]", "tau2[8]", "tau2[9]"}


def test_golden_appendix_c_clean_region():
    rep = golden_suite("AppendixC", order=5)
    assert rep.ok, [c.line() for c in rep.failures]


def test_golden_appendix_c_f6_defect():
    rep = golden_suite("AppendixC")
    failed = {c.name for c in rep.failures}
    assert failed == {"F[6]"}


def test_defect_is_constraint_forced():
    """The first differing Appendix-B coefficient (t1*t11 in tau_6) is fixed
    by the source's own displayed Virasoro-type constraint
    d/dt_11 tau = h L_9 tau applied to the golden-verified tau_5: the
    computed value wins, the golden table value violates the constraint."""
    golden = load_golden("AppendixB")
    tau5 = golden.entries["tau2[5]"]
    T = tau_expand(2, 0, 6)
    assert T.coeffs[5] == tau5  # the input of the forcing identity is golden
    forced = virasoro(9, 12).apply(tau5)
    mono = TimeMonomial.from_dict({1: 1, 11: 1})
    lhs = T.coeffs[6].derivative(11)
    assert lhs == forced
    computed = T.coeffs[6].terms[mono]
    assert computed == Coefficient.rational(QQ(-12100, 81))
    golden_val = golden.entries["tau2[6]"].terms[mono]
    assert golden_val == Coefficient.rational(QQ(-33275, 243))
    assert forced.terms[TimeMonomial.var(1)] == computed  # not the golden value


def test_defect_cascades_into_higher_orders():
    """Feeding the defective golden tau_6 into the recursion reproduces the
    golden tau_7's reduction-violating t_3/t_6 entries exactly, identifying
    the higher tables as downstream of the same defect."""
    golden = load_golden("AppendixB")
    T = tau_expand(2, 0, 6)
    w1, w2 = w1_w2(0, 18)
    alt7 = (w1.apply(golden.entries["tau2[6]"]) + w2.apply(T.coeffs[5])).scale(QQ(1, 14))
    for spec, val in (
        ({1: 1, 6: 1, 7: 1}, QQ(6050, 81)),
        ({1: 1, 3: 1, 10: 1}, QQ(30250, 567)),
        ({1: 1, 5: 1, 8: 1}, QQ(-2953400, 1701)),
    ):
        mono = TimeMonomial.from_dict(spec)
        assert alt7.terms.get(mono) == Coefficient.rational(val)
        assert golden.entries["tau2[7]"].terms.get(mono) == Coefficient.rational(val)
        # whereas the true expansion is 3-reduced or differs
        true7 = tau_expand(2, 0, 7).coeffs[7]
        got = true7.terms.get(mono)
        assert got is None or got != Coefficient.rational(val)


def test_f6_defect_matches_b_defect_at_n0():
    """The golden F[6] t1*t11 coefficient at N=0 equals the defective golden
    tau2[6] value: both tables inherit the same upstream error."""
    golden_c = load_golden("AppendixC")
    golden_b = load_golden("AppendixB")
    mono = TimeMonomial.from_dict({1: 1, 11: 1})
    f6_at_0 = substitute(
        TimePolynomial({mono: golden_c.entries["F[6]"].terms[mono]}), {"N": 0}
    )
    assert f6_at_0.terms[mono] == golden_b.entries["tau2[6]"].terms[mono]


def test_symbolic_tau6_t1t11_is_oracle_confirmed():
    """Symbolic-N oracle at degree 12 confirms the computed (not the golden)
    t1*t11 slot of the order-6 free energy."""
    T = tau_from_schur(plucker_expansion(2, "symbolic", 12))
    R = tau_expand(2, "symbolic", 6)
    assert T.coeffs[6] == R.coeffs[6]
    F = free_energy(R)
    golden_c = load_golden("AppendixC")
    mono = TimeMonomial.from_dict({1: 1, 11: 1})
    assert F[5].terms[mono] != golden_c.entries["F[6]"].terms[mono]


def test_constraint_suite_small():
    assert constraint_suite(2, 0, tau_expand(2, 0, 4)).ok
    assert constraint_suite(1, 0, tau_expand(1, 0, 6)).ok
    assert constraint_suite(2, "symbolic", tau_expand(2, "symbolic", 3)).ok


def test_constraint_suite_requires_depth():
    with pytest.raises(ValueError, match="K >= 2"):
        constraint_suite(2, 0, tau_expand(2, 0, 1))


def test_hirota_small():
    assert hirota_suite(tau_expand(2, 0, 4)).ok
    assert hirota_suite(tau_expand(1, 0, 4)).ok
    from bgwtau.cutjoin import TauExpansion

    const = TauExpansion(2, 0, [TimePolynomial.one(),
                                TimePolynomial.zero(), TimePolynomial.zero()])
    assert hirota_suite(const).ok


def test_crosscheck_suite():
    assert crosscheck_suite(2, 0, 8).ok
    assert crosscheck_suite(1, QQ(1, 2), 6).ok
    assert crosscheck_suite(3, 0, 6).ok


def _mutate(T, k=2):
    from bgwtau.cutjoin import TauExpansion

    coeffs = [TimePolynomial(dict(c.terms)) for c in T.coeffs]
    mono = sorted(coeffs[k].terms, key=lambda m: m.exps)[0]
    coeffs[k] = coeffs[k] + TimePolynomial.term(QQ(1, 7), mono)
    return TauExpansion(T.m, T.N, coeffs, T.provenance)


def test_mutation_controls():
    """Every suite must fail on a seeded single-coefficient mutation."""
    T = tau_expand(2, 0, 4)
    bad = _mutate(T)
    assert not constraint_suite(2, 0, bad).ok
    assert not hirota_suite(bad).ok
    # homogeneity-preserving mutation still breaks constraints and hirota;
    # invariants fail on a homogeneity-violating one
    worse = tau_expand(2, 0, 3)
    worse.coeffs[3] = worse.coeffs[3] + P("1/7*t1")
    assert not check_expansion_invariants(worse).ok
    golden = load_golden("AppendixB")
    mutated_entry = golden.entries["tau2[3]"] + P("1/7*t1^2*t4")
    from bgwtau.verify import _first_diff

    assert _first_diff(mutated_entry, golden.entries["tau2[3]"])
    assert not _first_diff(golden.entries["tau2[3]"], golden.entries["tau2[3]"])


def test_run_suites_dispatch():
    rep = run_suites(["checksums", "golden-inline"])
    assert rep.ok
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["golden-Z"])


def test_coverage_manifest():
    """Every suite named in the coverage manifest exists, and every
    implemented suite is mentioned there."""
    manifest = Path(__file__).resolve().parent.parent / "docs" / "coverage.md"
    text = manifest.read_text()
    implemented = set(SUITE_RUNNERS)
    mentioned = {
        token.strip("`")
        for token in text.split()
        if token.startswith("`") and token.strip("`") in implemented
    }
    assert mentioned == implemented, implemented - mentioned
