"""The tier-1 gate accepts exactly the two known failures (tools/tier1.py)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tier1.py"
spec = importlib.util.spec_from_file_location("tier1", TOOL)
tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1)

JUNIT = """<testsuites><testsuite>
<testcase classname="tests.test_acceptance" name="test_criterion_1_appendix_b_reproduction">
<failure message="x"/></testcase>
<testcase classname="tests.test_acceptance" name="test_criterion_2_appendix_c_reproduction">
<failure message="x"/></testcase>
<testcase classname="tests.test_algebra" name="test_ring_axioms"/>
<testcase classname="" name="tests.test_broken"><error message="collection failure"/></testcase>
</testsuite></testsuites>"""


def test_outcomes_reads_failures_and_collection_errors(tmp_path):
    report = tmp_path / "r.xml"
    report.write_text(JUNIT)
    ran, failed = tier1.outcomes(report)
    assert "tests.test_algebra::test_ring_axioms" in ran
    assert failed == set(tier1.EXPECTED_FAILURES) | {"tests.test_broken"}


def test_verdict_accepts_only_the_known_failures():
    known = set(tier1.EXPECTED_FAILURES)
    assert tier1.verdict(1, known) == []
    assert tier1.verdict(1, known | {"tests.test_broken"}) == [
        "unexpected failure: tests.test_broken"]
    assert tier1.verdict(0, set()) == [
        f"expected failure did not fail: {t}" for t in sorted(known)]
    assert tier1.verdict(2, known) == ["pytest exited with code 2"]


def test_slowest_orders_by_time(tmp_path):
    report = tmp_path / "r.xml"
    report.write_text("""<testsuites><testsuite>
<testcase classname="tests.a" name="fast" time="0.5"/>
<testcase classname="tests.a" name="slow" time="9.25"/>
<testcase classname="tests.b" name="untimed"/>
<testcase classname="tests.b" name="middle" time="2"/>
</testsuite></testsuites>""")
    assert tier1.slowest(report, 2) == [(9.25, "tests.a::slow"), (2.0, "tests.b::middle")]
    assert tier1.slowest(report)[-1] == (0.0, "tests.b::untimed")
