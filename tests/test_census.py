import itertools

import pytest

from fixfactor import census
from fixfactor.census import (
    canonical_form,
    census_failures,
    enumerate_preorders,
    enumerate_systems,
    monotone_maps,
    run_census,
)
from fixfactor.decomposition import Partition, stabilize
from fixfactor.errors import SizeLimitError, UnknownNameError
from fixfactor.systems import sierpinski
from fixfactor.topology import system_payload
import pins
from references import count_preorders_bruteforce, random_systems, reference_monotone_maps


def test_preorder_counts_match_known_sequence():
    got = [sum(1 for _ in enumerate_preorders(n)) for n in range(1, 5)]
    assert got == [1, 4, 29, 355]


def test_preorder_count_independent_bruteforce():
    for n in (2, 3):
        assert sum(1 for _ in enumerate_preorders(n)) == \
            count_preorders_bruteforce(n)


def test_sierpinski_contributes_three_systems():
    space = sierpinski().space
    assert sum(1 for _ in monotone_maps(space)) == 3


def test_monotone_maps_in_the_order_of_the_backtrack_up_to_five_points():
    # the same maps in the same order, so every census report and every
    # random_systems draw stays the same
    count = 0
    for n in range(1, 6):
        for space in enumerate_preorders(n):
            got = [m.img for m in monotone_maps(space)]
            assert got == list(reference_monotone_maps(space)), space.up
            count += len(got)
    assert count == 1 + 14 + 375 + 17440 + 1326310


@pytest.mark.parametrize("n", [6, 7, 8])
def test_monotone_maps_in_the_order_of_the_backtrack_where_random_systems_draw(n):
    # random_systems draws each map from the first 64 of its space
    for sys_ in random_systems(n, 20, seed=4000 + n):
        space = sys_.space
        assert [m.img for m in itertools.islice(monotone_maps(space), 64)] == \
            list(itertools.islice(reference_monotone_maps(space), 64)), space.up


def test_enumerate_systems_size_guard():
    with pytest.raises(SizeLimitError):
        list(enumerate_systems(6))
    with pytest.raises(SizeLimitError):
        list(enumerate_systems(7, up_to_iso=True))
    for n in (0, -1):
        with pytest.raises(SizeLimitError):
            enumerate_systems(n)  # raised at the call, before enumerating
        with pytest.raises(SizeLimitError):
            run_census(n)


def test_enumerate_systems_deterministic():
    a = [s.map.img for s in enumerate_systems(2)]
    b = [s.map.img for s in enumerate_systems(2)]
    assert a == b and len(a) > 0


def test_up_to_iso_dedupes():
    labeled = sum(1 for _ in enumerate_systems(2))
    iso = sum(1 for _ in enumerate_systems(2, up_to_iso=True))
    assert iso < labeled


def reference_iso_systems(n):
    """One system per isomorphism class by deduplicating every labeled
    system on its canonical form: the enumeration before orderly generation."""
    seen = set()
    for space in enumerate_preorders(n):
        for m in monotone_maps(space):
            key = canonical_form(space, m)
            if key not in seen:
                seen.add(key)
                yield space.up, m.img


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderly_generation_matches_canonical_form_dedupe(n):
    got = [(s.space.up, s.map.img) for s in enumerate_systems(n, up_to_iso=True)]
    assert got == list(reference_iso_systems(n))  # same systems, labels, order


def test_orderly_generation_counts_up_to_five_points():
    classes = [list(enumerate_systems(n, up_to_iso=True)) for n in range(1, 6)]
    # 13,290 is also the count of distinct canonical forms over all
    # 1,326,310 labeled 5-point systems
    assert len(classes[4]) == 13290
    # each preorder class appears once (OEIS A001930)
    assert [len({s.space.up for s in c}) for c in classes] == [1, 3, 9, 33, 139]


def test_census_n2_all_asserted_pass():
    report = run_census(2)
    assert census_failures(report) == []
    assert report.num_topologies == 4
    assert report.stabilization_histogram == {0: report.num_systems}


def test_census_deterministic_across_jobs():
    assert pins.failures(pins.ROW["census 3 --jobs 1"]) == []
    assert pins.failures(pins.ROW["census 3 --jobs 2"]) == []


@pytest.mark.parametrize("n", sorted(pins.CENSUS_ISO_SHA256))
def test_census_up_to_iso_report_pinned(n):
    assert pins.failures(pins.ROW[f"census {n} --up-to-iso"]) == []


def test_census_unknown_check_rejected():
    with pytest.raises(UnknownNameError):
        run_census(2, checks=("not-a-check",))


def test_plain_containment_probe_reports_nonclosed_stable_sets():
    # the probe is reported, not asserted: open non-closed stable sets on
    # non-Hausdorff models legitimately miss the closure of their orbits
    report = run_census(2, checks=("plain-containment-probe",))
    outcome = report.checks["plain-containment-probe"]
    assert outcome.failed > 0
    reasons = " ".join(c["reason"] for c in outcome.counterexamples)
    assert "plain-stable" in reasons
    # reported checks never fail the census verdict
    assert census_failures(report) == []


def test_probe_counterexample_found_at_smallest_size():
    # any witness at n=2 means the minimal reported size is 2
    report = run_census(2, checks=("plain-containment-probe",))
    assert report.checks["plain-containment-probe"].failed > 0


def test_random_systems_deterministic():
    a = random_systems(5, 10)
    b = random_systems(5, 10)
    assert [(s.space.up, s.map.img) for s in a] == \
        [(s.space.up, s.map.img) for s in b]


@pytest.mark.parametrize("n", [0, 9])
def test_random_systems_refuse_sizes_outside_the_point_names(n):
    with pytest.raises(SizeLimitError):
        random_systems(n, 1, seed=1)


@pytest.mark.parametrize("n", [1, 8])
def test_random_systems_at_the_ends_of_the_range(n):
    systems = random_systems(n, 3, seed=1)
    assert [s.space.n for s in systems] == [n] * 3


def test_finest_abs_stable_catches_a_too_coarse_oracle(monkeypatch):
    # an oracle that merges its first two classes is too coarse on each of
    # the 9 of 75 3-point system classes that have two classes to merge
    real = census.oracle_partition

    def merged(sys_):
        p = real(sys_)
        if p.num_classes < 2:
            return p
        return Partition.from_masks(
            sys_.space, [p.classes[0] | p.classes[1], *p.classes[2:]])

    monkeypatch.setattr(census, "oracle_partition", merged)
    report = run_census(3, up_to_iso=True, checks=("finest-abs-stable",))
    assert report.checks["finest-abs-stable"].failed == 9


# Each mutant replaces the binding through which the census analysis reads
# an orbit or core, and the definition-direct guard on it must fire: the
# per-system tables are compared with an enumeration, never with themselves.

def failed_checks(report):
    return {name for name, c in report.checks.items() if c.failed} - set(census.REPORTED_CHECKS)


def aorb0_without_closure(monkeypatch):
    monkeypatch.setattr(census, "aorb0_masks",
                        lambda sys_: tuple(sys_.map.orbit_mask(u) for u in sys_.space.up))


def value_table_without_saturation(monkeypatch):
    monkeypatch.setattr(census, "degree_value_table",
                        lambda sys_, p: [sys_.space.closure_table[u]
                                         for u in sys_.space.open_table])


def core_without_the_orbit(monkeypatch):
    # the core table without the orbit is the least open superset
    monkeypatch.setattr(census, "invariant_core_table",
                        lambda sys_: sys_.space.open_table)


def saturation_to_everything(monkeypatch):
    # The mutant lives for the duration of the check only: saturating to the
    # whole space everywhere would also merge the trace into one class, whose
    # saturation is the whole space.
    real = census.check_saturation_equivalences

    def with_full_saturation(a):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Partition, "saturate_mask", lambda self, mask: self.space.full_mask)
            return real(a)

    monkeypatch.setitem(census.ASSERTED_CHECKS, "saturation-equivalences",
                        with_full_saturation)


def test_guards_fire_on_an_aorb0_without_closure(monkeypatch):
    aorb0_without_closure(monkeypatch)
    report = run_census(3, checks=census.ALL_CHECK_NAMES)
    assert failed_checks(report) == {"definition-direct", "prolongation-identities"}


def test_guards_fire_on_an_aorb_succ_without_saturation(monkeypatch):
    # The census reads the successor orbit of point i off entry 1 << i of
    # the value table of its trace partition, and the stability verdicts off
    # the same table.  Skipping saturation in the open half alone changes
    # nothing on a finite system: the classes of the stationary partition
    # are clopen, so any seed between {x} and C(x) closes and saturates to
    # C(x).  So the mutant skips it in both halves.  Its verdicts then call
    # every clopen invariant set absolutely stable, saturated or not (a
    # fixed isolated point whose base class is larger, say), and the
    # containment lemma sees the base class stick out.
    value_table_without_saturation(monkeypatch)
    report = run_census(3, checks=census.ALL_CHECK_NAMES)
    assert failed_checks(report) == {"definition-direct", "quotient-neighborhood",
                                     "stabilization-degree-0", "containment-lemma"}


def test_guard_fires_on_an_invariant_core_without_the_orbit(monkeypatch):
    core_without_the_orbit(monkeypatch)
    report = run_census(3, checks=census.ALL_CHECK_NAMES)
    assert failed_checks(report) == {"invariant-core-reference"}


def test_saturation_equivalences_fire_on_a_saturation_to_everything(monkeypatch):
    # The three verdicts of the mutant still agree with one another, so only
    # the scan of the classes that meet S can catch it.
    saturation_to_everything(monkeypatch)
    report = run_census(3, checks=("saturation-equivalences",))
    assert report.checks["saturation-equivalences"].failed > 0
    assert census.census_failures(report) == ["saturation-equivalences"]


# The census derives what the checks read from a space and a trace
# partition once per (space, trace) and shares it, with the verdicts of
# the checks that read nothing else.  Sharing must change no verdict.

def fresh_facts(sys_):
    """The shared facts of one system's own, unshared analysis, with the
    verdicts of the shared checks on it."""
    a = census.analyze(sys_)
    f = a.facts
    verdicts = {name: census.ASSERTED_CHECKS[name](a) for name in sorted(census.SHARED_CHECKS)}
    return f.values, f.succ, f.succ_reference, f.quotient_space, verdicts


@pytest.mark.parametrize("n, up_to_iso, keys", [(4, True, 56), (3, False, 42)])
def test_facts_of_a_key_are_the_same_at_its_first_and_last_system(n, up_to_iso, keys):
    first, last = {}, {}
    for sys_ in enumerate_systems(n, up_to_iso):
        trace = stabilize(sys_)
        key = (sys_.space.up, tuple((d, p.classes) for d, p in trace.entries))
        first.setdefault(key, sys_)
        last[key] = sys_
    assert len(first) == keys
    assert sum(first[k] is not last[k] for k in first) > keys // 2
    for key in first:
        assert fresh_facts(first[key]) == fresh_facts(last[key]), key


def per_system_census(n, checks):
    """Each check's pass and fail counts and kept counterexamples, from a
    fresh, unshared analysis of every system."""
    out = {name: [0, 0, []] for name in checks}
    for sys_ in enumerate_systems(n):
        a = census.analyze(sys_)
        for name in checks:
            msg = (census.ASSERTED_CHECKS.get(name) or census.REPORTED_CHECKS[name])(a)
            counts = out[name]
            counts[msg is not None] += 1
            if msg is not None and len(counts[2]) < census.KEPT_COUNTEREXAMPLES:
                counts[2].append({"system": system_payload(sys_), "reason": msg})
    return out


@pytest.mark.parametrize("mutant", [
    None,
    aorb0_without_closure,
    value_table_without_saturation,
    core_without_the_orbit,
    saturation_to_everything,
])
def test_shared_facts_give_the_verdicts_of_a_fresh_analysis(monkeypatch, mutant):
    if mutant is not None:
        mutant(monkeypatch)
    checks = census.ALL_CHECK_NAMES
    report = run_census(3, checks=checks)
    got = {name: [c.passed, c.failed, c.counterexamples] for name, c in report.checks.items()}
    assert got == per_system_census(3, checks)


def test_no_facts_outlive_a_run(monkeypatch):
    assert census_failures(run_census(3, checks=census.ALL_CHECK_NAMES)) == []
    value_table_without_saturation(monkeypatch)
    report = run_census(3, checks=census.ALL_CHECK_NAMES)
    assert failed_checks(report) == {"definition-direct", "quotient-neighborhood",
                                     "stabilization-degree-0", "containment-lemma"}
