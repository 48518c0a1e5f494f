import math

import numpy as np
import pytest

from fliess.errors import SingularDecouplingError
from fliess.inversion import TaylorOutput
from fliess.realization import rk4_simulate
from fliess.vehicle import (
    CarParams,
    SectionInit,
    augmented_realization,
    car_realization,
    solve_first_order_match,
)


class TestParams:
    def test_defaults(self):
        p = CarParams()
        assert p.length == 1.0
        assert p.k == -0.7

    def test_section_init_validate_passes(self):
        init = SectionInit(0.0, 0.0, 0.1, 0.5, 2.0)
        assert init.validate() is init

    def test_zero_speed_rejected(self):
        with pytest.raises(SingularDecouplingError):
            SectionInit(0.0, 0.0, 0.0, 0.0, 0.0).validate()

    def test_secant_pole_rejected(self):
        # |k z4| = 0.7 * 2.3 exceeds pi/2
        with pytest.raises(SingularDecouplingError):
            SectionInit(0.0, 0.0, 0.0, 2.3, 1.0).validate()

    def test_as_tuple(self):
        init = SectionInit(1.0, 2.0, 3.0, 4.0, 5.0)
        assert init.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)


class TestFirstOrderMatch:
    def test_random_targets_round_trip(self, rng):
        for _ in range(200):
            target = rng.uniform(-5, 5, size=2)
            if math.hypot(*target) < 1e-3:
                continue
            z3 = rng.uniform(-math.pi, math.pi)
            z4, z5 = solve_first_order_match(target, z3)
            assert z5 * math.cos(z3 + z4) == pytest.approx(target[0], abs=1e-9)
            assert z5 * math.sin(z3 + z4) == pytest.approx(target[1], abs=1e-9)
            assert -math.pi < z4 <= math.pi
            assert abs(CarParams().k * z4) < math.pi / 2

    def test_branches_fix_speed_sign(self):
        # heading chosen so that both steering branches stay off the pole
        target = (1.0, 1.0)
        z3 = math.atan2(1.0, 1.0) - math.pi / 2
        z4p, z5p = solve_first_order_match(target, z3, branch="positive")
        z4n, z5n = solve_first_order_match(target, z3, branch="negative")
        assert z5p == pytest.approx(math.hypot(1, 1))
        assert z5n == pytest.approx(-math.hypot(1, 1))
        for z4, z5 in ((z4p, z5p), (z4n, z5n)):
            assert z5 * math.cos(z3 + z4) == pytest.approx(1.0, abs=1e-12)
            assert z5 * math.sin(z3 + z4) == pytest.approx(1.0, abs=1e-12)

    def test_auto_prefers_smaller_steering(self):
        # driving backward needs less steering here, so auto picks z5 < 0
        z4, z5 = solve_first_order_match((-2.0, 0.0), 0.0)
        assert z5 == pytest.approx(-2.0)
        assert abs(z4) < 1e-12

    def test_zero_target_rejected(self):
        with pytest.raises(SingularDecouplingError):
            solve_first_order_match((0.0, 0.0), 0.0)

    def test_forced_branch_can_hit_pole(self):
        # angle 2.9 rad of steering needed on the positive branch
        with pytest.raises(SingularDecouplingError):
            solve_first_order_match(
                (math.cos(2.9), math.sin(2.9)), 0.0, branch="positive"
            )
        # auto rescues itself on the reversed branch
        z4, z5 = solve_first_order_match((math.cos(2.9), math.sin(2.9)), 0.0)
        assert z5 < 0

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            solve_first_order_match((1.0, 0.0), 0.0, branch="sideways")


class TestDynamicExtension:
    def test_io_equivalence_with_original_model(self):
        # speed u1 = 1.5 + 0.6 t integrated as the fifth state must give
        # the same outputs as driving the four-state model directly
        z0 = (0.2, -0.1, 0.3, 0.1)
        horizon, steps = 0.8, 800
        orig = car_realization(z0)
        u_orig = TaylorOutput([[1.5, 0.6], [0.8, 0.0]])
        t_orig = rk4_simulate(orig, u_orig, horizon, steps)

        aug = augmented_realization(z0 + (1.5,))
        u_aug = TaylorOutput([[0.8], [0.6]])
        t_aug = rk4_simulate(aug, u_aug, horizon, steps)

        assert np.max(np.abs(t_orig.outputs - t_aug.outputs)) < 1e-10
        # the extension's fifth state follows the commanded speed
        assert t_aug.states[-1, 4] == pytest.approx(1.5 + 0.6 * horizon, rel=1e-12)

    def test_accepts_section_init(self):
        init = SectionInit(0.0, 0.0, 0.1, 0.2, 1.0)
        r = augmented_realization(init)
        assert r.z0 == init.as_tuple()
        assert r.n_states == 5 and r.n_inputs == 2 and r.n_outputs == 2
