"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line.  The finite-system criteria run over
the complete labeled census of systems on at most four points (every
preorder paired with every continuous self-map); the ladder criteria pin
the exact symbolic answers and audit them against finite windows.
"""

import time

import pytest

from fixfactor.census import (
    ASSERTED_CHECKS,
    analyze,
    enumerate_systems,
)
from fixfactor.ladder import (
    build_ladder,
    ladder_aorb0,
    ladder_trace,
    window,
    window_check,
)
from fixfactor.ladder.window import window_answers_stable
from fixfactor.ordinals import OMEGA, OrdinalCNF, parse_ordinal
from references import random_systems

MAX_N = 4
W2 = parse_ordinal("w*2")

SHARED_CHECKS = (
    "quotient-discrete",
    "stabilization-degree-0",
    "definition-direct",
    "oracle-classes-absolutely-stable",
    "finest-abs-stable",
    "degree-monotonicity",
    "containment-lemma",
    "ergodicity-equivalence",
    "prolongation-identities",
)


def census_systems():
    for n in range(1, MAX_N + 1):
        yield from enumerate_systems(n)


@pytest.fixture(scope="module")
def shared_census():
    results = {name: {"passed": 0, "failed": 0, "first": None}
               for name in SHARED_CHECKS}
    total = 0
    for sys_ in census_systems():
        total += 1
        a = analyze(sys_)
        for name in SHARED_CHECKS:
            msg = ASSERTED_CHECKS[name](a)
            if msg is None:
                results[name]["passed"] += 1
            else:
                results[name]["failed"] += 1
                if results[name]["first"] is None:
                    results[name]["first"] = msg
    results["total"] = total
    return results


def report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[{verdict}] criterion {num}: {label} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    total = bad = 0
    for sys_ in census_systems():
        total += 1
        if ASSERTED_CHECKS["oracle-equivalence"](analyze(sys_)) is not None:
            bad += 1
    elapsed = time.time() - t0
    report(
        1, "stationary partition equals the level-set oracle",
        bad == 0 and elapsed < 60.0,
        f"{total} systems, {bad} mismatches, {elapsed:.1f}s (< 60s required)",
    )


def test_criterion_2_hausdorff_quotient(shared_census):
    r = shared_census["quotient-discrete"]
    report(
        2, "quotient by the stationary partition is discrete with oracle classes",
        r["failed"] == 0,
        f"{r['passed']}/{shared_census['total']} systems ({r['first'] or 'clean'})",
    )


def test_criterion_3_degree_zero_collapse(shared_census):
    r = shared_census["stabilization-degree-0"]
    report(
        3, "every finite census system stabilizes at degree 0",
        r["failed"] == 0,
        f"{r['passed']}/{shared_census['total']} systems",
    )


def test_criterion_4_definition_direct(shared_census):
    r = shared_census["definition-direct"]
    extra_total = extra_bad = 0
    for sys_ in random_systems(5, 500):
        extra_total += 1
        if ASSERTED_CHECKS["definition-direct"](analyze(sys_)) is not None:
            extra_bad += 1
    report(
        4, "collapsed orbit computations match exhaustive intersections",
        r["failed"] == 0 and extra_bad == 0,
        f"census {r['passed']}/{shared_census['total']}, "
        f"5-point sample {extra_total - extra_bad}/{extra_total}",
    )


def test_criterion_5_ladder_reproductions():
    t0 = time.time()
    problems = []

    strand = build_ladder("strand")
    tr = ladder_trace(strand, W2)
    if tr.stabilization_degree != OrdinalCNF.from_int(0) or \
            tr.partition_at(0).class_count() != 1:
        problems.append("strand does not collapse to one class at degree 0")

    cs = build_ladder("cat(strand)")
    tr = ladder_trace(cs, W2)
    p0, p1 = tr.partition_at(0), tr.partition_at(1)
    a, z, top = (("copy", 0), ("A",)), (("copy", 3), ("z", 1)), (("TOP",),)
    if not (p0.class_count() == 2 and p0.same_class(a, z)
            and not p0.same_class(a, top)):
        problems.append("cat(strand) degree 0 is not {finite part, top}")
    if not (p1.class_count() == 1
            and tr.stabilization_degree == OrdinalCNF.from_int(1)):
        problems.append("cat(strand) does not become one class at degree 1")

    ramp = build_ladder("ramp")
    tr = ladder_trace(ramp, W2)

    def block_base(n):
        return (("block", n),) + tuple([("copy", 0)] * (n + 1)) + (("A",),)

    for n in range(6):
        p = tr.partition_at(n)
        if not p.same_class(block_base(0), block_base(n)):
            problems.append(f"ramp degree {n} does not merge blocks 0..{n}")
        if p.same_class(block_base(0), block_base(n + 1)):
            problems.append(f"ramp degree {n} merges block {n + 1} too early")
        cnt = p.class_count()
        if cnt is not None and cnt < 2:
            problems.append(f"ramp degree {n} has fewer than 2 classes")

    cr = build_ladder("cat(ramp)")
    tr = ladder_trace(cr, W2)
    pw = tr.partition_at(OMEGA)
    c0 = (("copy", 0), ("block", 0), ("copy", 0), ("A",))
    c1 = (("copy", 1), ("block", 0), ("copy", 0), ("A",))
    if pw.same_class(c0, c1) or pw.same_class(c0, (("TOP",),)):
        problems.append("cat(ramp) collapses too much at degree w")

    orbit = ladder_aorb0(cs, "c:m")
    kinds = {(c["kind"], c.get("at") or c.get("region"), c.get("profile"))
             for c in orbit.to_json()["components"]}
    if kinds != {("point", "c:m", None), ("point", "c:m-1", None),
                 ("strand", "S:m", "all")}:
        problems.append("generic chain-point orbit is not {c:m-1, c:m} + S:m")

    elapsed = time.time() - t0
    report(
        5, "ladder systems reproduce the pinned symbolic answers",
        not problems and elapsed < 10.0,
        f"{elapsed:.1f}s (< 10s required); " + ("; ".join(problems) or "all exact"),
    )


def test_criterion_6_window_audits():
    cuts = [(3, 3), (5, 6), (8, 8)]
    violations = []
    stability_problems = []
    checks = 0
    for term in ("strand", "cat(strand)", "ramp", "cat(ramp)"):
        space = build_ladder(term)
        trace = ladder_trace(space, W2)
        wins = []
        for m, j in cuts:
            win = window(space, m, j)
            wins.append(win)
            rep = window_check(space, win, trace=trace)
            checks += rep.checks_run
            violations.extend(f"{term}({m},{j}): {v}" for v in rep.violations)
        stability_problems.extend(
            f"{term}: {p}" for p in window_answers_stable(space, wins)
        )
    report(
        6, "window audits are clean and answers stable across windows",
        not violations and not stability_problems,
        f"{checks} checks over {len(cuts)} windows x 4 terms; "
        + ("; ".join((violations + stability_problems)[:3]) or "zero violations"),
    )


def test_criterion_7_stability_theorems(shared_census):
    names = ["oracle-classes-absolutely-stable", "finest-abs-stable",
             "degree-monotonicity", "containment-lemma"]
    bad = {n: shared_census[n]["failed"] for n in names}
    first = next((shared_census[n]["first"] for n in names
                  if shared_census[n]["first"]), "clean")
    report(
        7, "stability hierarchy theorems hold on the census",
        all(v == 0 for v in bad.values()),
        f"failures per check {bad} over {shared_census['total']} systems ({first})",
    )


def test_criterion_8_ergodicity_equivalences(shared_census):
    r = shared_census["ergodicity-equivalence"]
    report(
        8, "one-class trace <=> one oracle class <=> trivial stable partition",
        r["failed"] == 0,
        f"{r['passed']}/{shared_census['total']} systems",
    )


def test_criterion_9_prolongation_identities(shared_census):
    r = shared_census["prolongation-identities"]
    report(
        9, "first and second prolongations coincide with the base orbits",
        r["failed"] == 0,
        f"{r['passed']}/{shared_census['total']} systems",
    )


def test_criterion_10_property_suites():
    from test_properties import (
        test_kuratowski_laws_on_census_spaces,
        test_quotient_neighborhood_identity_at_stationarity,
        test_saturation_equivalences_ten_thousand_subsets,
        test_trace_monotone_and_refines_oracle,
    )

    t0 = time.time()
    test_kuratowski_laws_on_census_spaces()
    test_saturation_equivalences_ten_thousand_subsets()
    test_trace_monotone_and_refines_oracle()
    test_quotient_neighborhood_identity_at_stationarity()
    elapsed = time.time() - t0
    report(
        10, "property suites (closure laws, saturation, traces, quotients)",
        elapsed < 30.0,
        f"{elapsed:.1f}s (< 30s required)",
    )
