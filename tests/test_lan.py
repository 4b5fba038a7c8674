"""Likelihood-ratio terms, information accounting, augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import neymanlab as nl
from conftest import (closed_form_remainder, exact_ratio_oracle, fresh_stream, ref_lr_terms,
                      replication, shipped_scenario)
from neymanlab.engine import chunk_stats
from neymanlab.lan import LrTerms, _augment, _augment_normals, _report

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)
V_STAR = nl.eval_bound_binary(HETERO, NEYMAN.treated_share).v


def ratios(sub, rules, n, seeds, h):
    """A lan study's rows at the truth: each rule's (ell, info_tilde_n)
    columns, one row per seed."""
    return chunk_stats(sub, 0.0, [n], [(rule, [LrTerms(sub, h)]) for rule in rules], seeds)


def test_zero_h_is_identically_zero():
    [[ell, info]] = ratios(SUB, [nl.IidPropensity(NEYMAN)], 300, [7], 0.0)
    assert ell == 0.0
    assert LrTerms(SUB, 0.0).remainder(300) == 0.0
    assert info == pytest.approx(ref_lr_terms(SUB, *replication(
        SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 7), 0.0)["info_tilde_n"][0], abs=1e-12)


def test_single_unit_pure_covariate_closed_form():
    # no outcome shift anywhere, so the ratio is the tilt of one draw:
    # h * s_x(x_1) - log cosh(h) for a symmetric two-point stratum score
    law = nl.CovariateLaw(["a", "b"], [0.5, 0.5])
    sc = nl.Scenario(law, nl.OutcomeModel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                          np.ones((2, 2))),
                     nl.TreatmentFunctional.ate(2))
    sub = nl.Submodel(sc, s_x=np.array([1.0, -1.0]), c_shift=np.zeros((2, 2)))
    h = 0.7
    rule = nl.IidPropensity(nl.AllocationMap(np.full((2, 2), 0.5)))
    [[ell, _]] = ratios(sub, [rule], 1, [11], h)
    x, _, _ = replication(sub, 0.0, rule, 1, 11)
    assert ell == pytest.approx(h * sub.s_x[x[0]] - np.log(np.cosh(h)), abs=1e-14)


def test_exact_ratio_matches_density_recomputation():
    seeds = nl.engine.rep_seeds(404, 3)
    for seed, rule in zip(seeds, [nl.IidPropensity(NEYMAN), nl.MatchedPairs(),
                                  nl.DeterministicAlternation()]):
        [[ell, _]] = ratios(SUB, [rule], 250, [seed], 1.3)
        want = exact_ratio_oracle(SUB, *replication(SUB, 0.0, rule, 250, seed), 1.3)
        assert ell == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_terms_sum_to_exact_ratio():
    # the per-unit expansion terms and the remainder a study reports add up
    # to the ratio a study computes from the cells
    rule, h = nl.StratifiedBlocks(NEYMAN, 8), 0.9
    [[ell, _]] = ratios(SUB, [rule], 400, [5], h)
    ref = ref_lr_terms(SUB, *replication(SUB, 0.0, rule, 400, 5), h)
    total = sum(ref[name][0] for name in ("lin_x", "lin_y", "quad_x", "quad_y"))
    assert ell == pytest.approx(total + LrTerms(SUB, h).remainder(400), abs=1e-12)


def test_gaussian_part_has_no_remainder():
    # the outcome factor expands exactly, so the remainder is entirely the
    # covariate tilt minus its own first two terms
    rule, h, n = nl.IidPropensity(NEYMAN), 1.1, 350
    x, w, y = replication(SUB, 0.0, rule, n, 17)
    ref = ref_lr_terms(SUB, x, w, y, h)
    theta = h / np.sqrt(n)
    tilt = float(np.log(SUB.tilted_probs(theta) / HETERO.covariates.probs)[x].sum())
    gaussian = exact_ratio_oracle(SUB, x, w, y, h) - tilt
    assert gaussian == pytest.approx(ref["lin_y"][0] + ref["quad_y"][0], abs=1e-12)
    assert LrTerms(SUB, h).remainder(n) == pytest.approx(
        tilt - ref["lin_x"][0] - ref["quad_x"][0], abs=1e-12)


def test_realized_information_rule_indifference():
    # at the balancing allocation the two arms carry the same conditional
    # information in every stratum, so any assignment of every unit yields
    # the same realized total
    rules = [nl.IidPropensity(NEYMAN), nl.StratifiedBlocks(NEYMAN, 6),
             nl.MatchedPairs(), nl.DeterministicAlternation(), nl.FullTreatment(1)]
    [row] = ratios(SUB, rules, 500, [99], 1.0)
    values = row[1::2]
    assert max(values) - min(values) <= 1e-12


def test_info_converges_to_bound():
    [[_, info]] = ratios(SUB, [nl.IidPropensity(NEYMAN)], 200_000, [3], 1.0)
    assert info == pytest.approx(V_STAR, rel=0.02)


def test_score_terms_centered_within_cells():
    # conditional score contributions are mean zero cell by cell, which is
    # what makes the linear term a martingale under any assignment rule
    x, w, y = replication(SUB, 0.0, nl.StratifiedBlocks(NEYMAN, 8), 60_000, 123)
    mu = SUB.base.outcomes.mu
    s2 = SUB.base.outcomes.sigma2
    for k in range(HETERO.k):
        for arm in range(2):
            cell = (x == k) & (w == arm)
            count = int(cell.sum())
            assert count > 500
            score = SUB.c_shift[k, arm] * (y[cell] - mu[k, arm]) / s2[k, arm]
            sd = abs(SUB.c_shift[k, arm]) / np.sqrt(s2[k, arm])
            assert abs(score.mean()) <= 4 * sd / np.sqrt(count)


def test_augment_noop_when_target_already_met():
    [[ell, info]] = ratios(SUB, [nl.IidPropensity(NEYMAN)], 300, [44], 1.0)
    assert _augment(1.0, info, ell, info, _augment_normals([44])[0], "iid") == (ell, info)


def test_augment_hits_information_target_exactly():
    budget = shipped_scenario("solve_budget")
    ref = nl.solve_constrained(budget)
    sub = nl.least_favorable_submodel(budget, ref.p)
    v_budget = nl.eval_bound_general(budget, ref).v
    half = nl.AllocationMap(ref.p * 0.5)
    [[ell, info]] = ratios(sub, [nl.IidPropensity(half)], 400, [60], 1.0)
    assert info < v_budget  # half sampling leaves a gap
    _, padded = _augment(1.0, v_budget, ell, info, _augment_normals([60])[0], "iid")
    assert padded == pytest.approx(v_budget, abs=1e-12)


def test_augment_rejects_overfull_information():
    [[ell, info]] = ratios(SUB, [nl.IidPropensity(NEYMAN)], 300, [45], 1.0)
    with pytest.raises(nl.InfoExceedsTarget):
        _augment(1.0, info - 1.0, ell, info, _augment_normals([45])[0], "iid")


def test_augment_reuses_log_verbatim():
    # augmentation draws from a separate stream keyed by the replication's
    # seed, so the replications themselves are shared and the added part is
    # seed-reproducible
    half = nl.IidPropensity(nl.AllocationMap(NEYMAN.p * 0.5))
    kw = dict(h=1.0, n_list=[300], reps=40, seed_base=46, i_star=V_STAR)
    [[plain]] = nl.lan_by_design(SUB, [half], **kw)
    [[a1]] = nl.lan_by_design(SUB, [half], augment=True, **kw)
    [[a2]] = nl.lan_by_design(SUB, [half], augment=True, **kw)
    assert plain.mean_info < V_STAR
    assert a1.mean_info == pytest.approx(V_STAR, abs=1e-12)
    assert (a1.mean_ell, a1.var_ell) == (a2.mean_ell, a2.var_ell)
    assert a1.mean_ell != plain.mean_ell


def test_chunk_augmentation_matches_each_log():
    # a study derives all its augmentation keys at once; each row must still
    # get the first normal of its own seed's stream, and a study's padded
    # ratios must be each replication's own ratio padded by its own normal
    half = nl.IidPropensity(nl.AllocationMap(NEYMAN.p * 0.5))
    seeds = nl.engine.rep_seeds(47, 90)  # n = 400: blocks of 40 rows
    per_log = ratios(SUB, [half], 400, seeds, 1.0)
    z = _augment_normals(seeds)
    ell, _ = _augment(1.0, V_STAR, per_log[:, 0], per_log[:, 1], z, half.kind)
    padded = []
    for r, seed in enumerate(seeds):
        assert z[r] == fresh_stream(seed, "augment").standard_normal()
        [[ell_r, info_r]] = ratios(SUB, [half], 400, [seed], 1.0)
        sigma = V_STAR - info_r
        padded.append(ell_r + 1.0 * np.sqrt(sigma) * z[r] - 0.5 * sigma)
        assert ell[r] == pytest.approx(padded[r], abs=1e-12)
    [[report]] = nl.lan_by_design(SUB, [half], 1.0, [400], 90, seed_base=47, i_star=V_STAR,
                                  augment=True)
    assert report.mean_ell == np.mean(ell)
    assert report.mean_ell == pytest.approx(np.mean(padded), abs=1e-12)


def test_diagnostics_fields_consistent():
    [[report]] = nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 1.0, [400], 200,
                                  seed_base=314, i_star=V_STAR)
    assert report.target_mean == pytest.approx(-0.5 * V_STAR)
    assert report.target_var == pytest.approx(V_STAR)
    assert not report.ks_degenerate
    assert report.mean_abs_remainder > 0
    assert report.mean_abs_remainder == pytest.approx(
        closed_form_remainder(SUB, 1.0, 400), rel=1e-9, abs=0)
    assert 0.0 <= report.ks_distance <= 1.0


def test_diagnostics_degenerate_at_zero_h():
    [[report]] = nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 0.0, [100], 50,
                                  seed_base=2, i_star=V_STAR)
    assert report.ks_degenerate
    assert report.ks_distance == 0.0
    assert report.mean_ell == 0.0
    assert report.var_ell == 0.0


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 2000), seed=st.integers(0, 2**32 - 1), h=st.floats(0.1, 3.0),
       i_star=st.floats(0.05, 10.0), shift=st.floats(-2.0, 2.0), scale=st.floats(0.25, 4.0),
       decimals=st.sampled_from([None, 2, 1, 0]))
def test_ks_distance_matches_scipy_kstest(m, seed, h, i_star, shift, scale, decimals):
    # the numpy KS distance is scipy's statistic up to the last bit of the
    # normal cdf; rounding the sample gives ties
    target_mean, sd = -0.5 * h * h * i_star, np.sqrt(h * h * i_star)
    ells = target_mean + sd * (shift + scale * np.random.default_rng(seed).standard_normal(m))
    if decimals is not None:
        ells = np.round(ells, decimals)
    report = _report(ells, np.zeros(m), 0.0, h, 100, i_star, False)
    law = stats.norm(loc=report.target_mean, scale=float(np.sqrt(report.target_var)))
    assert not report.ks_degenerate
    assert abs(report.ks_distance - stats.kstest(ells, law.cdf).statistic) <= 1e-15


def test_diagnostics_reject_single_rep():
    with pytest.raises(nl.DegenerateReps):
        nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 1.0, [100], 1,
                         seed_base=2, i_star=V_STAR)


def test_diagnostics_jobs_parity():
    # at n = 200 some pairs' realized information exceeds I*, so the padded
    # run aims above it
    for augment, i_star in ((False, V_STAR), (True, V_STAR + 1.0)):
        kw = dict(h=1.0, n_list=[200], reps=60, seed_base=8, i_star=i_star, augment=augment)
        [[one]] = nl.lan_by_design(SUB, [nl.MatchedPairs()], **kw)
        with nl.worker_pool(2) as pool:
            [[two]] = nl.lan_by_design(SUB, [nl.MatchedPairs()], pool=pool, **kw)
        assert one.augmented == two.augmented == augment
        assert one.mean_ell == two.mean_ell
        assert one.var_ell == two.var_ell
        assert one.ks_distance == two.ks_distance
