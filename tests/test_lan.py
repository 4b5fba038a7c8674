"""Likelihood-ratio decomposition, information accounting, augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import neymanlab as nl
from conftest import closed_form_remainder, shipped_scenario
from neymanlab.lan import _chunk_lan, _report

HETERO = shipped_scenario("risk_hetero")
NEYMAN = nl.neyman_allocation(HETERO)
SUB = nl.least_favorable_submodel(HETERO, NEYMAN.p)
V_STAR = nl.eval_bound_binary(HETERO, NEYMAN.treated_share).v


def exact_ratio_oracle(sub, log, h):
    """Recompute the exact log likelihood ratio from raw densities."""
    theta = h / np.sqrt(log.n)
    q = sub.base.covariates.probs
    tilted = sub.tilted_probs(theta)
    total = float(np.log(tilted[log.x] / q[log.x]).sum())
    obs = log.w >= 0
    xi, wi, yi = log.x[obs], log.w[obs], log.y[obs]
    mu = sub.base.outcomes.mu[xi, wi]
    sd = np.sqrt(sub.base.outcomes.sigma2[xi, wi])
    shift = theta * sub.c_shift[xi, wi]
    total += float(stats.norm.logpdf(yi, loc=mu + shift, scale=sd).sum())
    total -= float(stats.norm.logpdf(yi, loc=mu, scale=sd).sum())
    return total


def test_zero_h_is_identically_zero():
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 7)
    dec = nl.log_likelihood_ratio(SUB, log, 0.0)
    for name in ("ell_exact", "lin_x", "lin_y", "quad_x", "quad_y", "remainder"):
        assert getattr(dec, name) == 0.0


def test_single_unit_pure_covariate_closed_form():
    # no outcome shift anywhere, so the ratio is the tilt of one draw:
    # h * s_x(x_1) - log cosh(h) for a symmetric two-point stratum score
    law = nl.CovariateLaw(["a", "b"], [0.5, 0.5])
    sc = nl.Scenario(law, nl.OutcomeModel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                          np.ones((2, 2))),
                     nl.TreatmentFunctional.ate(2))
    sub = nl.Submodel(sc, s_x=np.array([1.0, -1.0]), c_shift=np.zeros((2, 2)))
    h = 0.7
    log = nl.run_one(sub, 0.0, nl.IidPropensity(nl.AllocationMap(np.full((2, 2), 0.5))), 1, 11)
    dec = nl.log_likelihood_ratio(sub, log, h)
    want = h * sub.s_x[log.x[0]] - np.log(np.cosh(h))
    assert dec.ell_exact == pytest.approx(want, abs=1e-14)


def test_exact_ratio_matches_density_recomputation():
    for rep, rule in enumerate([nl.IidPropensity(NEYMAN), nl.MatchedPairs(),
                                nl.DeterministicAlternation()]):
        log = nl.run_one(SUB, 0.0, rule, 250, nl.rep_seed(404, rep))
        dec = nl.log_likelihood_ratio(SUB, log, 1.3)
        assert dec.ell_exact == pytest.approx(exact_ratio_oracle(SUB, log, 1.3),
                                              rel=1e-12, abs=1e-12)


def test_terms_sum_to_exact_ratio():
    log = nl.run_one(SUB, 0.0, nl.StratifiedBlocks(NEYMAN, 8), 400, 5)
    dec = nl.log_likelihood_ratio(SUB, log, 0.9)
    total = dec.lin_x + dec.lin_y + dec.quad_x + dec.quad_y + dec.remainder
    assert dec.ell_exact == pytest.approx(total, abs=1e-12)


def test_gaussian_part_has_no_remainder():
    # the outcome factor expands exactly, so the remainder is entirely the
    # covariate tilt minus its own first two terms
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 350, 17)
    h = 1.1
    dec = nl.log_likelihood_ratio(SUB, log, h)
    theta = h / np.sqrt(log.n)
    tilt = theta * float(SUB.s_x[log.x].sum()) - log.n * SUB.log_norm(theta)
    assert dec.remainder == pytest.approx(tilt - dec.lin_x - dec.quad_x, abs=1e-12)


def test_realized_information_rule_indifference():
    # at the balancing allocation the two arms carry the same conditional
    # information in every stratum, so any assignment of every unit yields
    # the same realized total
    rules = [nl.IidPropensity(NEYMAN), nl.StratifiedBlocks(NEYMAN, 6),
             nl.MatchedPairs(), nl.DeterministicAlternation(), nl.FullTreatment(1)]
    values = []
    for rule in rules:
        log = nl.run_one(SUB, 0.0, rule, 500, 99)
        values.append(nl.log_likelihood_ratio(SUB, log, 1.0).info_tilde_n)
    assert max(values) - min(values) <= 1e-12


def test_info_converges_to_bound():
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 200_000, 3)
    info = nl.log_likelihood_ratio(SUB, log, 1.0).info_tilde_n
    assert info == pytest.approx(V_STAR, rel=0.02)


def test_score_terms_centered_within_cells():
    # conditional score contributions are mean zero cell by cell, which is
    # what makes the linear term a martingale under any assignment rule
    log = nl.run_one(SUB, 0.0, nl.StratifiedBlocks(NEYMAN, 8), 60_000, 123)
    mu = SUB.base.outcomes.mu
    s2 = SUB.base.outcomes.sigma2
    for k in range(HETERO.k):
        for w in range(2):
            cell = (log.x == k) & (log.w == w)
            count = int(cell.sum())
            assert count > 500
            score = SUB.c_shift[k, w] * (log.y[cell] - mu[k, w]) / s2[k, w]
            sd = abs(SUB.c_shift[k, w]) / np.sqrt(s2[k, w])
            assert abs(score.mean()) <= 4 * sd / np.sqrt(count)


def test_augment_noop_when_target_already_met():
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 44)
    plain = nl.log_likelihood_ratio(SUB, log, 1.0)
    aug = nl.augment_with_z(SUB, log, 1.0, i_star=plain.info_tilde_n)
    assert aug.ell_exact == plain.ell_exact
    assert aug.lin_y == plain.lin_y
    assert aug.info_tilde_n == plain.info_tilde_n
    assert aug.augmented


def test_augment_hits_information_target_exactly():
    budget = shipped_scenario("solve_budget")
    ref = nl.solve_constrained(budget)
    sub = nl.least_favorable_submodel(budget, ref.p)
    v_budget = nl.eval_bound_general(budget, ref).v
    half = nl.AllocationMap(ref.p * 0.5)
    log = nl.run_one(sub, 0.0, nl.IidPropensity(half), 400, 60)
    plain = nl.log_likelihood_ratio(sub, log, 1.0)
    assert plain.info_tilde_n < v_budget  # half sampling leaves a gap
    aug = nl.augment_with_z(sub, log, 1.0, i_star=v_budget)
    assert aug.info_tilde_n == pytest.approx(v_budget, abs=1e-12)


def test_augment_rejects_overfull_information():
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(NEYMAN), 300, 45)
    plain = nl.log_likelihood_ratio(SUB, log, 1.0)
    with pytest.raises(nl.InfoExceedsTarget):
        nl.augment_with_z(SUB, log, 1.0, i_star=plain.info_tilde_n - 1.0)


def test_augment_reuses_log_verbatim():
    # augmentation draws from a separate stream keyed by the log's seed, so
    # the log itself is shared and the added part is seed-reproducible
    log = nl.run_one(SUB, 0.0, nl.IidPropensity(nl.AllocationMap(NEYMAN.p * 0.5)),
                     300, 46)
    a1 = nl.augment_with_z(SUB, log, 1.0, i_star=V_STAR)
    a2 = nl.augment_with_z(SUB, log, 1.0, i_star=V_STAR)
    assert a1.ell_exact == a2.ell_exact


def test_chunk_augmentation_matches_each_log():
    # a chunk derives all its augmentation keys at once; each row must still
    # get its own seed's stream, in every block of the chunk
    half = nl.IidPropensity(nl.AllocationMap(NEYMAN.p * 0.5))
    seeds = nl.engine.rep_seeds(47, 90)  # n = 400: blocks of 40 rows
    per_log = _chunk_lan(SUB, [half], 1.0, 400, V_STAR, True, seeds)
    for r in (0, 39, 40, 89):
        log = nl.run_one(SUB, 0.0, half, 400, seeds[r])
        assert per_log[r, 0] == nl.augment_with_z(SUB, log, 1.0, i_star=V_STAR).ell_exact


def test_diagnostics_fields_consistent():
    [report] = nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 1.0, 400, 200,
                                seed_base=314, i_star=V_STAR)
    assert report.target_mean == pytest.approx(-0.5 * V_STAR)
    assert report.target_var == pytest.approx(V_STAR)
    assert not report.ks_degenerate
    assert report.mean_abs_remainder > 0
    assert report.mean_abs_remainder == pytest.approx(
        closed_form_remainder(SUB, 1.0, 400), rel=1e-9, abs=0)
    assert 0.0 <= report.ks_distance <= 1.0


def test_diagnostics_degenerate_at_zero_h():
    [report] = nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 0.0, 100, 50,
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
    report = _report(np.column_stack([ells, np.zeros((m, 2))]), h, 100, i_star, False)
    law = stats.norm(loc=report.target_mean, scale=float(np.sqrt(report.target_var)))
    assert not report.ks_degenerate
    assert abs(report.ks_distance - stats.kstest(ells, law.cdf).statistic) <= 1e-15


def test_diagnostics_reject_single_rep():
    with pytest.raises(nl.DegenerateReps):
        nl.lan_by_design(SUB, [nl.IidPropensity(NEYMAN)], 1.0, 100, 1,
                         seed_base=2, i_star=V_STAR)


def test_diagnostics_jobs_parity():
    kw = dict(h=1.0, n=200, reps=60, seed_base=8, i_star=V_STAR)
    [one] = nl.lan_by_design(SUB, [nl.MatchedPairs()], **kw)
    with nl.worker_pool(2) as pool:
        [two] = nl.lan_by_design(SUB, [nl.MatchedPairs()], pool=pool, **kw)
    assert one.mean_ell == two.mean_ell
    assert one.var_ell == two.var_ell
    assert one.ks_distance == two.ks_distance
