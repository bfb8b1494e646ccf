import inspect
import math
from typing import get_args, get_origin, get_type_hints

import pytest

from rainbowkit import (
    BudgetExceeded,
    ColoredPath,
    DichotomyViolation,
    ExtremalCycle,
    ExtremalPair,
    FamilyClassification,
    GuaranteeViolation,
    HasRainbow,
    HasZeroSum,
    MatchingFamily,
    MultisetClassification,
    PreconditionError,
    RainbowMatching,
    Regimentation,
    SOURCE,
    TheoremViolation,
    Transversal,
    build_family,
    canonical_cycle_family,
    classify_family,
    edge,
    is_regimented,
    validate_matching,
)
from rainbowkit import campaigns, network_paths
from rainbowkit.errors import Meter, charge_multisets
from rainbowkit.campaigns import (THEOREMS, certifies, regimentation_is_valid, run_campaign,
                                  splits_cycle)
from conftest import CYCLE_CORRUPTIONS, path


SMALL_RUNS = [
    ("drisko", {"n": 2, "samples": 50, "seed": 1}),
    ("general", {"samples": 50, "seed": 2}),
    ("bgs", {"n": 4, "samples": 50, "seed": 3}),
    ("extremal", {"n": 2, "exhaustive": True}),
    ("counting", {"samples": 50, "seed": 4}),
    ("dichotomy", {"n": 2}),
    ("egz", {"n": 3, "exhaustive": True}),
    ("egz-extremal", {"n": 3, "exhaustive": True}),
    ("transversal", {"n": 3, "samples": 50, "seed": 5}),
    ("sharpness", {"n": 3}),
]


class TestRunCampaign:
    def test_unknown_theorem(self):
        with pytest.raises(PreconditionError):
            run_campaign("fermat")

    @pytest.mark.parametrize("theorem,kwargs", SMALL_RUNS)
    def test_small_runs_are_clean(self, theorem, kwargs):
        report = run_campaign(theorem, **kwargs)
        assert report.theorem == theorem
        assert report.violations == 0
        assert report.instances_checked > 0
        obj = report.to_obj()
        assert set(obj) == {"theorem", "instances_checked", "violations",
                            "elapsed", "seed", "parameters"}

    def test_zero_is_a_value_not_the_default(self):
        report = run_campaign("dichotomy", n=0)
        assert report.instances_checked == 1
        assert report.parameters["max_inner"] == 0

    def test_report_without_instances_refused(self, monkeypatch):
        monkeypatch.setitem(campaigns._RUNNERS, "egz",
                            (lambda *args: ({}, ()), 6, 1, None, True))
        with pytest.raises(PreconditionError, match="no instances"):
            run_campaign("egz")

    @pytest.mark.parametrize("theorem,kwargs,total", [
        ("dichotomy", {"n": 5}, 31_634_996_316),
        ("drisko", {"n": 3, "exhaustive": True}, 75_287_520),
        ("extremal", {"n": 4, "exhaustive": True}, 66_435_367_637_100),
        ("egz", {"n": 11, "exhaustive": True}, 44_352_165),
        ("egz-extremal", {"n": 11, "exhaustive": True}, 30_045_015),
    ])
    def test_enumeration_beyond_budget_refused_at_once(self, monkeypatch, theorem,
                                                       kwargs, total):
        def refuse(*args):
            raise AssertionError("enumeration started")

        for name in ("_all_simple_paths", "enumerate_matchings", "enumerate_multisets"):
            monkeypatch.setattr(campaigns, name, refuse)
        with pytest.raises(BudgetExceeded, match=f"^{total} multisets exceed"):
            run_campaign(theorem, **kwargs)

    @pytest.mark.parametrize("theorem,kwargs,total,checked", [
        ("drisko", {"n": 2, "exhaustive": True}, 1140, 1140),
        ("extremal", {"n": 2, "exhaustive": True}, 171, 171),
        ("dichotomy", {"n": 3}, 816, 734),
    ])
    def test_enumeration_charged_exactly(self, theorem, kwargs, total, checked):
        assert run_campaign(theorem, budget=total, **kwargs).instances_checked == checked
        with pytest.raises(BudgetExceeded, match=f"^{total} multisets exceed"):
            run_campaign(theorem, budget=total - 1, **kwargs)

    @pytest.mark.parametrize("budget", [1, 2, 7, 8, 100, 10**6])
    def test_lower_bound_refuses_no_enumeration_that_fits(self, budget):
        # the 2**min(kinds - 1, k) shortcut refuses exactly the counts the
        # exact charge refuses
        for kinds in range(1, 40):
            for k in range(40):
                total = math.comb(kinds + k - 1, k)
                if total <= budget:
                    charge_multisets(kinds, k, budget)
                else:
                    with pytest.raises(BudgetExceeded):
                        charge_multisets(kinds, k, budget)

    def test_dichotomy_counts_each_wrong_verdict(self, monkeypatch):
        monkeypatch.setattr(
            campaigns, "verify_regimented_dichotomy",
            lambda paths, budget: network_paths.is_regimented(list(paths)) or Regimentation(()))
        report = run_campaign("dichotomy", n=3)
        # the regimented multisets cut the inner nodes into ordered runs:
        # 1, 1, 3 and 13 ways for 0-3 inner nodes, and keep their true
        # regimentation; every other one is traversable, so calling it
        # regimented is one violation each
        assert report.instances_checked == 734
        assert report.violations == 734 - 18

    @pytest.mark.parametrize("theorem,kwargs,classifier", [
        ("extremal", {"n": 2, "exhaustive": True}, "classify_family"),
        ("egz-extremal", {"n": 3, "exhaustive": True}, "classify_multiset"),
    ])
    def test_classifier_out_of_budget_is_not_a_violation(self, monkeypatch, theorem,
                                                          kwargs, classifier):
        monkeypatch.setattr(campaigns, classifier,
                            lambda instance, budget: Meter(0).spend())
        with pytest.raises(BudgetExceeded, match="^step budget exhausted$"):
            run_campaign(theorem, **kwargs)

    @pytest.mark.parametrize("theorem,kwargs,classifier,checked", [
        ("extremal", {"n": 2, "exhaustive": True}, "classify_family", 171),
        ("egz-extremal", {"n": 3, "exhaustive": True}, "classify_multiset", 18),
    ])
    def test_classifier_failure_is_a_violation(self, monkeypatch, theorem, kwargs,
                                               classifier, checked):
        def fail(instance, budget):
            raise TheoremViolation("no verdict")

        monkeypatch.setattr(campaigns, classifier, fail)
        report = run_campaign(theorem, **kwargs)
        assert (report.instances_checked, report.violations) == (checked, checked)

    @pytest.mark.parametrize("theorem,kwargs,patches,expected", [
        ("drisko", {"n": 2, "samples": 50, "seed": 1},
         {"find_rainbow_matching": None}, (50, 50)),
        ("general", {"samples": 50, "seed": 2},
         {"find_rainbow_matching": None}, (50, 47)),
        ("general", {"samples": 50, "seed": 2},
         {"find_rainbow_matching": RainbowMatching(())}, (50, 50)),
        ("bgs", {"n": 4, "samples": 50, "seed": 3},
         {"find_rainbow_matching": None}, (50, 50)),
        ("counting", {"samples": 50, "seed": 4},
         {"reachable_witness_set": {}}, (50, 50)),
        ("egz", {"n": 3, "exhaustive": True},
         {"find_zero_sum_subset": None}, (26, 26)),
        ("transversal", {"n": 3, "samples": 50, "seed": 5},
         {"find_transversal": None}, (50, 50)),
        ("sharpness", {"n": 3},
         {"find_rainbow_matching": object(), "brute_rainbow": object()}, (2, 4)),
        ("sharpness", {"n": 3}, {"find_rainbow_matching": object()}, (2, 2)),
        ("dichotomy", {"n": 3},
         {"verify_regimented_dichotomy": DichotomyViolation("neither")}, (734, 734)),
        ("transversal", {"n": 3, "samples": 50, "seed": 5},
         {"find_transversal": Transversal(frozenset())}, (50, 50)),
        ("egz", {"n": 3, "exhaustive": True}, {"find_zero_sum_subset": (1,)}, (26, 26)),
        ("egz-extremal", {"n": 3, "exhaustive": True},
         {"classify_multiset": HasZeroSum((1,))}, (18, 18)),
        # Regimentation(()) regiments only the empty multiset
        ("dichotomy", {"n": 3},
         {"verify_regimented_dichotomy": Regimentation(())}, (734, 733)),
        ("extremal", {"n": 2, "exhaustive": True},
         {"classify_family": HasRainbow(RainbowMatching(()))}, (171, 171)),
        # 0,0,2,2 mod 3 is the one multiset that ExtremalPair(0, 2) describes
        ("egz-extremal", {"n": 3, "exhaustive": True},
         {"classify_multiset": ExtremalPair(0, 2)}, (18, 17)),
        # s->t via 0 is right only where the first path is the direct one
        ("dichotomy", {"n": 3},
         {"verify_regimented_dichotomy": ColoredPath(("s", "t"), (0,))}, (734, 633)),
        # a solver that raises answers wrongly on that instance
        ("drisko", {"n": 2, "samples": 50, "seed": 1},
         {"find_rainbow_matching": GuaranteeViolation("miss")}, (50, 50)),
        ("transversal", {"n": 3, "samples": 50, "seed": 5},
         {"find_transversal": AssertionError()}, (50, 50)),
        # a classifier always names a certificate, so None is wrong everywhere
        ("extremal", {"n": 2, "exhaustive": True}, {"classify_family": None}, (171, 171)),
        ("egz-extremal", {"n": 3, "exhaustive": True}, {"classify_multiset": None}, (18, 18)),
        ("dichotomy", {"n": 3}, {"verify_regimented_dichotomy": None}, (734, 734)),
    ])
    def test_each_wrong_answer_counts(self, monkeypatch, theorem, kwargs, patches,
                                      expected):
        # each patched verdict source answers the same wrong thing every time
        # (an exception is raised instead); general keeps the instances the
        # brute oracle also calls infeasible and sharpness charges the solver
        # and the oracle one fault each
        def wrong(answer):
            def call(*args):
                if isinstance(answer, Exception):
                    raise answer
                return answer
            return call

        for name, answer in patches.items():
            monkeypatch.setattr(campaigns, name, wrong(answer))
        report = run_campaign(theorem, **kwargs)
        assert (report.instances_checked, report.violations) == expected

    @pytest.mark.parametrize("colors,violations", [((0, 1), 0), ((0, 0), 5)])
    def test_malformed_counting_witness_is_a_violation(self, monkeypatch, colors,
                                                       violations):
        # two copies of s->0->t: the sink is reachable and three witnesses
        # outnumber the two paths, so only the colors decide the verdict
        family = build_family([[path("s", 0, "t")], [path("s", 0, "t")]])
        witnesses = {"s": ColoredPath(("s",), ()), 0: ColoredPath(("s", 0), (0,)),
                     "t": ColoredPath(("s", 0, "t"), colors)}
        monkeypatch.setattr(campaigns, "generate", lambda spec: family)
        monkeypatch.setattr(campaigns, "reachable_witness_set", lambda fam: witnesses)
        report = run_campaign("counting", samples=5, seed=1)
        assert (report.instances_checked, report.violations) == (5, violations)

    def test_counting_reads_the_contraction(self, monkeypatch):
        # a contraction that reaches nothing leaves only the source's witness,
        # which never outnumbers the paths
        monkeypatch.setattr(network_paths, "_reach",
                            lambda groups: ({SOURCE: (-1, SOURCE, -1)}, []))
        report = run_campaign("counting", samples=200, seed=5)
        assert (report.instances_checked, report.violations) == (200, 200)

    def test_every_name_has_a_runner(self):
        assert set(THEOREMS) == {
            "drisko", "general", "bgs", "extremal", "counting", "dichotomy",
            "egz", "egz-extremal", "transversal", "sharpness"}



class TestExtremalCertificate:
    """The extremal campaign reads each split-cycle verdict against the
    family itself, so a verdict naming the wrong cycle or colors is a fault
    although the family has no rainbow matching."""

    @pytest.mark.parametrize("corrupt", CYCLE_CORRUPTIONS)
    def test_corrupted_cycle_verdict_is_a_fault(self, monkeypatch, corrupt):
        classify = campaigns.classify_family
        cycles = []

        def corrupted(family, budget):
            verdict = classify(family, budget)
            if not isinstance(verdict, ExtremalCycle):
                return verdict
            cycles.append(verdict)
            return corrupt(verdict)

        assert run_campaign("extremal", n=3, samples=60, seed=4).violations == 0
        monkeypatch.setattr(campaigns, "classify_family", corrupted)
        report = run_campaign("extremal", n=3, samples=60, seed=4)
        assert len(cycles) > 0
        assert report.violations == len(cycles)

    def test_one_wrong_odd_member_fails(self):
        family = canonical_cycle_family(3)
        verdict = classify_family(family)
        members = list(family)
        members[max(verdict.odd_colors)] = validate_matching(
            [edge(0, 1), edge(1, 0), edge(2, 2)])
        assert splits_cycle(verdict, family, 3)
        assert not splits_cycle(verdict, MatchingFamily(tuple(members)), 3)


class TestRegimentationCertificate:
    """regimentation_is_valid reads a Regimentation against the paths alone."""

    def test_the_regimentation_found_passes(self):
        paths = [path("s", 0, 1, "t"), path("s", 2, "t"), path("s", 0, 1, "t")]
        family = build_family([[p] for p in paths])
        verdict = is_regimented(paths)
        assert regimentation_is_valid(verdict, family)
        assert certifies(verdict, family, 3)

    @pytest.mark.parametrize("paths,classes", [
        ([path("s", 0, 1, "t"), path("s", 2, "t")],
         ((path("s", 0, 1, "t"), 1), (path("s", 2, "t"), 1))),
        ([path("s", 0, "t"), path("s", 0, 1, "t"), path("s", 0, 1, "t")],
         ((path("s", 0, "t"), 1), (path("s", 0, 1, "t"), 2))),
        ([path("s", 0, 1, "t"), path("s", 0, 1, "t"), path("s", 2, "t")],
         ((path("s", 0, 1, "t"), 2),)),
        # the direct path's edge count asks for no copies, and a class has one
        ([path("s", 0, "t")], ((path("s", 0, "t"), 1), (path("s", "t"), 0))),
    ], ids=["wrong-count", "overlapping-representatives", "missing-class",
            "empty-class"])
    def test_wrong_regimentation_fails(self, paths, classes):
        family = build_family([[p] for p in paths])
        assert not regimentation_is_valid(Regimentation(classes), family)


class TestCertificateTable:
    def test_every_verdict_type_has_a_checker(self):
        types = {RainbowMatching, tuple, Transversal, ColoredPath, Regimentation}
        for verdict in get_args(FamilyClassification) + get_args(MultisetClassification):
            witness = get_type_hints(verdict).get("witness")
            types.add(verdict if witness is None else get_origin(witness) or witness)
        assert HasRainbow not in types and tuple in types
        assert types <= set(campaigns._CERTIFICATES)

    def test_unknown_type_fails_and_none_passes(self):
        family = canonical_cycle_family(2)
        assert not certifies(object(), family, 1)
        assert certifies(None, family, 1)

    def test_none_fails_where_a_certificate_is_required(self):
        family = canonical_cycle_family(2)
        assert not certifies(None, family, 2, required=True)
        assert certifies(classify_family(family), family, 2, required=True)

class TestBudgetRouting:
    """Every search, oracle and charge a campaign starts gets the campaign's
    budget, so RAINBOWKIT_BUDGET means the same thing in every verb."""

    SEARCHES = {"find_rainbow_matching", "classify_family", "classify_multiset",
                "find_zero_sum_subset", "find_transversal", "brute_rainbow",
                "brute_mc_path", "brute_reaches_sink", "brute_zero_sum",
                "enumerate_multisets", "verify_regimented_dichotomy"}

    @pytest.mark.parametrize("theorem,kwargs", SMALL_RUNS)
    def test_every_call_gets_the_campaign_budget(self, monkeypatch, theorem, kwargs):
        calls = []

        def recording(name, function):
            signature = inspect.signature(function)

            def call(*args, **kw):
                bound = signature.bind(*args, **kw)
                bound.apply_defaults()
                calls.append((name, bound.arguments["budget"]))
                return function(*args, **kw)
            return call

        # every function campaigns imports that takes a budget
        wrapped = set()
        for name, value in vars(campaigns).items():
            if (inspect.isfunction(value) and value.__module__ != campaigns.__name__
                    and "budget" in inspect.signature(value).parameters):
                monkeypatch.setattr(campaigns, name, recording(name, value))
                wrapped.add(name)
        assert self.SEARCHES <= wrapped
        run_campaign(theorem, budget=99_999, **kwargs)
        assert {name for name, _ in calls} & self.SEARCHES
        assert [call for call in calls if call[1] != 99_999] == []

    @pytest.mark.parametrize("theorem,kwargs", SMALL_RUNS)
    def test_every_enumeration_gets_the_campaign_budget(self, monkeypatch, theorem,
                                                        kwargs):
        # the multicolored-path enumerations inside the searches, the
        # solver's own per network among them, start their meters at the
        # campaign's budget too
        budgets = []

        class Recording(network_paths.Meter):
            __slots__ = ()

            def __init__(self, budget):
                budgets.append(budget)
                super().__init__(budget)

        monkeypatch.setattr(network_paths, "Meter", Recording)
        run_campaign(theorem, budget=99_999, **kwargs)
        assert [b for b in budgets if b != 99_999] == []

    @pytest.mark.parametrize("theorem,checked", [
        ("egz", (120, 146)), ("egz-extremal", (84, 102))])
    def test_single_modulus_and_exhaustive_reports_differ(self, theorem, checked):
        single = run_campaign(theorem, n=4)
        every = run_campaign(theorem, n=4, exhaustive=True)
        assert single.parameters == {"n": 4, "mode": "exhaustive"}
        assert every.parameters == {"n_max": 4, "mode": "exhaustive"}
        assert (single.instances_checked, every.instances_checked) == checked


class TestBgsBound:
    def test_member_counts_satisfy_threshold(self):
        from rainbowkit import drisko_condition
        for n in range(2, 40):
            for k in range(1, n):
                m = (k + 2) * n // (k + 1) - (k + 1)
                if m >= 1:
                    assert drisko_condition([n] * m, n - k)

    def test_larger_sample(self):
        report = run_campaign("bgs", n=5, samples=300, seed=99)
        assert report.violations == 0
        assert report.instances_checked == 300
