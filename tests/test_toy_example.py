"""Regression test of the motivating two-component composite example.

Study drug: every patient responds on component A and none on component B.
Placebo: half respond on both components, half on neither.  The any-component
composite then reads 100% vs 50% in favor of the drug even though the drug is
strictly worse on component B — the composite's verdict is driven entirely by
A.  A prioritized pairwise rule makes the dependence on the chosen priority
explicit instead of hiding it.  (README: "Why prioritization matters".)
"""

import numpy as np

from wrtrials import BinaryRule, contingency_or_test

from test_wr_tests import LOSS, WIN, binary, pair_score


def drug_patients(n):
    # responds on A, never on B
    return [(1, 0)] * n


def placebo_patients(n):
    # half respond on both, half on neither
    return [(1, 1)] * (n // 2) + [(0, 0)] * (n // 2)


def test_composite_any_component_favors_drug():
    drug = drug_patients(40)
    placebo = placebo_patients(40)
    drug_any = np.array([a or b for a, b in drug])
    placebo_any = np.array([a or b for a, b in placebo])
    assert drug_any.mean() == 1.0
    assert placebo_any.mean() == 0.5
    res = contingency_or_test(drug_any, placebo_any)
    assert res.or_hat > 1 and res.p_value < 0.01


def test_component_b_alone_favors_placebo():
    drug_b = np.array([b for _, b in drug_patients(40)])
    placebo_b = np.array([b for _, b in placebo_patients(40)])
    assert drug_b.mean() == 0.0
    assert placebo_b.mean() == 0.5
    res = contingency_or_test(drug_b, placebo_b)
    assert res.or_hat < 1


def test_prioritized_rule_verdict_depends_on_priority():
    # encode "response" as absence of the bad event so that the prioritized
    # rule can be applied directly: y = 1 - response_A, x = 1 - response_B
    drug = binary(0, 1)
    placebo_responder = binary(0, 0)
    placebo_nonresponder = binary(1, 1)

    # with A prioritized, the drug beats nonresponders and loses to
    # responders only on the secondary component
    assert pair_score(BinaryRule(), drug, placebo_nonresponder) == WIN
    assert pair_score(BinaryRule(), drug, placebo_responder) == LOSS

    # swapping the component priority flips the responder comparison, so
    # the pairwise verdict is an explicit function of the chosen priority
    drug_swapped = binary(1, 0)
    responder_swapped = binary(0, 0)
    assert pair_score(BinaryRule(), drug_swapped, responder_swapped) == LOSS

    # a drug patient who responds on A only, against a placebo patient who
    # responds on B only: A first gives the drug the win, while B first
    # would give it the loss
    placebo_b_only = binary(1, 0)
    assert pair_score(BinaryRule(), drug, placebo_b_only) == WIN
