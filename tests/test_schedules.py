import math

import numpy as np
import pytest

from agp.bench import parse_config
from agp.objective import Regime, SmoothnessData, make_bilinear, random_quadratic
from agp.schedules import (CNcConfig, InfeasibleConfigError, NcCConfig,
                           NcScConfig, ScNcConfig, UnsupportedRegimeError, _steps,
                           auto_configure, validate)

from reference import c_k, params_at, q_k, steps_unhoisted


def data(L_x=1.0, L_y=1.0, L_12=1.0, L_21=1.0, mu=0.0, theta=0.0):
    return SmoothnessData(L_x=L_x, L_y=L_y, L_12=L_12, L_21=L_21, mu=mu, theta=theta)


class TestParamsAt:
    def test_nc_sc_constants(self):
        d = data(mu=1.0)
        cfg = NcScConfig(eta=2.0, rho=0.1)
        for k in (1, 5, 1000):
            p = params_at(cfg, d, k)
            assert (p.beta, p.gamma, p.b, p.c) == (2.0, 10.0, 0.0, 0.0)

    def test_nc_c_hand_substitution_k1(self):
        # independent recomputation: c1 = 1/(2*1*1) = 0.5,
        # alpha1 = 4*1/(1*0.25) = 16, beta~1 = 1 + 64 + 32 - 0.2 = 96.8
        d = data()
        cfg = NcCConfig(eta_bar=0.1, rho_bar=1.0, tau=3.0)
        p = params_at(cfg, d, 1)
        assert p.c == pytest.approx(0.5)
        assert p.beta == pytest.approx(96.9)
        assert p.gamma == pytest.approx(1.0)
        assert p.b == 0.0

    def test_sc_nc_constants(self):
        d = data(theta=1.0)
        p = params_at(ScNcConfig(zeta=0.25, nu=3.0), d, 7)
        assert (p.beta, p.gamma, p.b, p.c) == (4.0, 3.0, 0.0, 0.0)

    def test_c_nc_hand_substitution_k16(self):
        # q16 = 1/(2*0.5*2) = 0.5; gamma~16 = 0.5 + 24/(0.5*0.25) - 0.2 = 192.3
        d = data()
        cfg = CNcConfig(nu_bar=0.1, zeta_bar=0.5, tau=3.0)
        p = params_at(cfg, d, 16)
        assert p.b == pytest.approx(0.5)
        assert p.gamma == pytest.approx(0.1 + 192.3)
        assert p.beta == pytest.approx(2.0)
        assert p.c == 0.0

    def test_pure_function_bit_identical(self):
        d = data(mu=0.5)
        cfg = NcCConfig(eta_bar=0.3, rho_bar=0.7, tau=2.5)
        for k in (1, 3, 47):
            a = params_at(cfg, d, k)
            b = params_at(cfg, d, k)
            assert (a.beta, a.gamma, a.b, a.c) == (b.beta, b.gamma, b.b, b.c)

    def test_decoupled_floor(self):
        # L_12 = 0 collapses beta~_k to -2 eta_bar; the floor keeps beta positive
        d = data(L_x=2.0, L_12=0.0)
        cfg = NcCConfig(eta_bar=0.1, rho_bar=1.0, tau=3.0)
        p = params_at(cfg, d, 1)
        assert p.floored
        assert p.beta == pytest.approx(1.01 * 2.0)

    def test_decoupled_floor_degenerate_raises(self):
        d = data(L_x=0.0, L_12=0.0)
        cfg = NcCConfig(eta_bar=0.1, rho_bar=1.0, tau=3.0)
        with pytest.raises(InfeasibleConfigError):
            params_at(cfg, d, 1)


class TestScheduleShape:
    def test_nc_c_beta_grows_like_sqrt_k(self):
        d = data()
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        betas = {k: params_at(cfg, d, k).beta for k in (1, 4, 16, 64, 256)}
        for k in (16, 64):
            ratio = betas[4 * k] / betas[k]
            assert 1.9 <= ratio <= 2.1
        ks = [1, 4, 16, 64, 256]
        assert all(betas[a] < betas[b] for a, b in zip(ks, ks[1:]))

    def test_c_k_halves_when_k_times_16(self):
        cfg = NcCConfig(eta_bar=0.5, rho_bar=0.8, tau=3.0)
        for k in (1, 2, 7, 40):
            assert c_k(cfg, 16 * k) == pytest.approx(c_k(cfg, k) / 2, abs=1e-12)

    def test_q_k_halves_when_k_times_16(self):
        cfg = CNcConfig(nu_bar=0.5, zeta_bar=1.2, tau=3.0)
        for k in (1, 3, 11):
            assert q_k(cfg, 16 * k) == pytest.approx(q_k(cfg, k) / 2, abs=1e-12)

    def test_sequences_strictly_decreasing(self):
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        cs = [c_k(cfg, k) for k in range(1, 100)]
        assert all(a > b for a, b in zip(cs, cs[1:]))


class TestAutoConfigure:
    def test_nc_sc_hand_values(self):
        d = data(mu=1.0)
        cfg = auto_configure(d, Regime.NC_SC)
        assert cfg.rho == pytest.approx(0.25)
        assert cfg.eta == pytest.approx(1.01 * max(1.0, 1.0, 0.25 + 16.0))
        assert cfg.eta == pytest.approx(16.4125)

    def test_nc_c_rule(self):
        d = data(L_y=2.0)
        cfg = auto_configure(d, Regime.NC_C)
        assert cfg.rho_bar == pytest.approx(0.5)
        assert cfg.tau == 3.0

    def test_sc_nc_rule(self):
        d = data(theta=1.0)
        cfg = auto_configure(d, Regime.SC_NC)
        assert cfg.zeta == pytest.approx(min(0.25, 6.0))

    def test_structural_requirements(self):
        with pytest.raises(UnsupportedRegimeError):
            auto_configure(data(mu=0.0), Regime.NC_SC)
        with pytest.raises(UnsupportedRegimeError):
            auto_configure(data(theta=0.0), Regime.SC_NC)
        with pytest.raises(UnsupportedRegimeError):
            auto_configure(data(L_y=0.0), Regime.NC_C)
        with pytest.raises(UnsupportedRegimeError):
            auto_configure(data(L_x=0.0), Regime.C_NC)


class TestValidate:
    def test_nc_sc_all_pass(self):
        d = data(mu=1.0)
        rep = validate(NcScConfig(eta=16.4125, rho=0.25), d)
        assert rep.passed
        assert len(rep.checks) == 4

    def test_nc_c_equality_margin(self):
        # rho~ = 1/L_y makes rho~ <= 2/(L_y' + c1) hold with equality
        for L_y in (0.5, 1.0, 3.7):
            d = data(L_y=L_y)
            cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0 / L_y, tau=3.0)
            rep = validate(cfg, d)
            chk = rep.checks[0]
            assert chk.passed
            assert chk.lhs == pytest.approx(chk.rhs)

    def test_decay_condition_first_holds_at_9(self):
        # 2*(10^(1/4) - 9^(1/4)) ~ 0.0924 <= 0.1 but
        # 2*(9^(1/4) - 8^(1/4)) ~ 0.1006 > 0.1
        assert 2 * (10**0.25 - 9**0.25) == pytest.approx(0.0924, abs=1e-3)
        assert 2 * (9**0.25 - 8**0.25) == pytest.approx(0.1006, abs=1e-3)
        d = data()
        rep = validate(NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0), d)
        assert rep.k0 == 9
        rep = validate(CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0), d)
        assert rep.k0 == 9

    def test_never_throws_on_bad_config(self):
        d = data(mu=1.0)
        rep = validate(NcScConfig(eta=0.5, rho=10.0), d)
        assert not rep.passed

    @pytest.mark.parametrize("cfg, seed, regime, failing", [
        (NcScConfig(eta=50.0, rho=-1.0), 7, Regime.NC_SC, 2),
        (ScNcConfig(zeta=-1.0, nu=50.0), 3, Regime.SC_NC, 1)], ids=["nc_sc", "sc_nc"])
    def test_negative_step_fails(self, cfg, seed, regime, failing):
        # a negative rho / zeta turns the coupling condition's left side negative
        rep = validate(cfg, random_quadratic(seed, 2, 2, regime).constants)
        assert not rep.passed
        assert [i for i, c in enumerate(rep.checks) if not c.passed] == [failing]
        assert rep.checks[failing].lhs == math.inf

    def test_report_formats(self):
        d = data(mu=1.0)
        rep = validate(NcScConfig(eta=16.4125, rho=0.25), d)
        text = str(rep)
        assert "L_x < eta" in text
        assert rep.passed

    def test_auto_config_validates_for_tagged_instances(self):
        for regime in Regime:
            for seed in range(3):
                p = random_quadratic(seed, 3, 2, regime)
                cfg = auto_configure(p.constants, regime)
                assert validate(cfg, p.constants).passed, (regime, seed)

    def test_auto_config_validates_across_zoo(self):
        from conftest import zoo_instances
        for p in zoo_instances():
            for regime in p.tags:
                try:
                    cfg = auto_configure(p.constants, regime)
                except UnsupportedRegimeError:
                    continue  # degenerate coupling: explicit configs only
                assert validate(cfg, p.constants).passed, (p.name, regime)

    def test_bilinear_explicit_config_validates(self):
        p = make_bilinear([[1.0]])
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        assert validate(cfg, p.constants).passed
        cfg = CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0)
        assert validate(cfg, p.constants).passed


class TestStepParams:
    def test_tau_bound(self):
        with pytest.raises(ValueError):
            NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=2.0)


def workload_configs():
    """``(cfg, data)`` of every regime config the benchmark workloads
    (``benchmark/workloads.py``) build at seeds 0 to 3, each once."""
    blocks = ["problem = bilinear(dim=1)\nregime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)\n",
              "problem = bilinear(dim=1)\nregime = c_nc(zeta_bar=1, nu_bar=0.5, tau=3)\n"]
    for s in range(4):
        blocks += [f"problem = {p}\n" for p in (
            f"quadratic(seed={11 + s}, nx=2, ny=2, regime=nc_c)",
            f"quadratic(seed={13 + s}, nx=2, ny=2, regime=c_nc)",
            f"quadratic(seed={7 + s}, nx=2, ny=2, regime=nc_sc)",
            f"quadratic(seed={3 + s}, nx=2, ny=2, regime=sc_nc)",
            f"svm(seed={1 + s}, m=2, n=6)",
            f"quadratic(seed={8 + s}, nx=32, ny=32, regime=sc_nc)",
            f"quadratic(seed={9 + s}, nx=64, ny=64, regime=nc_sc)",
            f"quadratic(seed={5 + s}, nx=1, ny=2, regime=nc_sc)",
            f"quadratic(seed={3 + s}, nx=2, ny=1, regime=sc_nc)",
            f"quadratic(seed={1 + s}, nx=1, ny=2, regime=nc_c)",
            f"quadratic(seed={2 + s}, nx=2, ny=1, regime=c_nc)")]
    specs = parse_config("\n".join(blocks))
    return list({repr((sp.regime_cfg, sp.problem.constants)): (sp.regime_cfg, sp.problem.constants)
                 for sp in specs}.values())


# the decoupled floors: L_12 = 0 (resp. L_21 = 0) collapses the schedule to
# -eta~ (resp. -nu~), below 1.01 L_x (resp. 1.01 L_y)
FLOORED = [(NcCConfig(eta_bar=0.1, rho_bar=1.0, tau=3.0), data(L_x=2.0, L_12=0.0)),
           (CNcConfig(nu_bar=0.1, zeta_bar=0.5, tau=2.5), data(L_y=3.0, L_21=0.0))]

K_MAX = 200_000


def as_bits(row):
    return np.array(row, dtype=float).view(np.int64).tolist()


class TestStepsHoisted:
    """``_steps`` hoists the schedule's constants out of k; each k keeps the
    bits of the unhoisted formulas."""

    def test_workload_configs_bit_for_bit(self):
        configs = workload_configs()
        kinds = {type(cfg) for cfg, _ in configs}
        assert kinds == {NcScConfig, NcCConfig, ScNcConfig, CNcConfig}
        assert len(configs) >= 40
        for cfg, d in configs + FLOORED:
            # a constant schedule's tuple does not read k
            growing = isinstance(cfg, (NcCConfig, CNcConfig))
            ks = range(1, (K_MAX if growing else 2000) + 1)
            want = [steps_unhoisted(cfg, d, k) for k in ks]
            # a feasible tuple holds floats > 0, the literal 0.0 and a bool,
            # so equality of the tuples is equality of their bits
            assert list(map(_steps(cfg, d), ks)) == want, cfg

    def test_floored_configs_floor(self):
        for cfg, d in FLOORED:
            beta, gamma, _, _, floored = _steps(cfg, d)(K_MAX)
            assert floored
            assert (beta if isinstance(cfg, NcCConfig) else gamma) == 1.01 * (
                d.L_x if isinstance(cfg, NcCConfig) else d.L_y)

    @pytest.mark.parametrize("cfg, d, match, last", [
        # beta_k = 1 + 96 sqrt(k) - eta~ and gamma_k = 0.5 + 48 sqrt(k) - nu~
        # turn positive at k = 1000
        (NcCConfig(eta_bar=1.0 + 96 * math.sqrt(999.5), rho_bar=1.0, tau=3.0), data(),
         "beta_k <= 0 in the nonconvex-concave schedule", 999),
        (CNcConfig(nu_bar=0.5 + 48 * math.sqrt(999.5), zeta_bar=0.5, tau=3.0), data(),
         "gamma_k <= 0 in the convex-nonconcave schedule", 999),
        (NcCConfig(eta_bar=0.1, rho_bar=1.0, tau=3.0), data(L_x=0.0, L_12=0.0),
         "beta_k <= 0 .* floor 1.01\\*L_x also degenerates", 2000),
        (NcScConfig(eta=1.0, rho=0.0), data(), "needs eta > 0 and 0 < rho < inf", 2000),
        (ScNcConfig(zeta=1.0, nu=-1.0), data(), "needs 0 < zeta < inf and nu > 0", 2000)])
    def test_infeasible_at_the_same_k(self, cfg, d, match, last):
        step = _steps(cfg, d)
        raised = []
        for k in range(1, 2001):
            want = steps_unhoisted(cfg, d, k)
            if want is None:
                with pytest.raises(InfeasibleConfigError, match=match):
                    step(k)
                raised.append(k)
            else:
                assert as_bits(step(k)) == as_bits(want)
        assert raised == list(range(1, last + 1))
