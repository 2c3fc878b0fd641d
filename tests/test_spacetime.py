import re

import numpy as np
import pytest

from tauwork.spacetime import (
    DilationProfile,
    WeakFieldViolationError,
    Worldline,
    comoving_worldline,
    cruise_worldline,
    dilation_factor,
    dilation_profile,
    point_mass_worldline,
    uniform_gravity_worldline,
)


class TestDilationFactor:
    def test_comoving_static_observer(self):
        assert dilation_factor(0.0, 0.0, 1.0) == 1.0

    def test_potential_only(self):
        assert dilation_factor(0.2, 0.0, 1.0) == pytest.approx(1.2, abs=1e-15)

    def test_motion_only(self):
        # p^2 / (2 m^2) = 0.02
        assert dilation_factor(0.0, 0.2, 1.0) == pytest.approx(0.98, abs=1e-15)

    def test_large_c_limit(self):
        assert abs(dilation_factor(0.2, 0.2, 1.0, c=1e6) - 1.0) < 1e-12
        assert abs(dilation_factor(0.3, 0.5, 2.0, c=1e8) - 1.0) < 1e-12

    def test_monotone_in_potential_and_speed(self):
        phis = np.linspace(-0.3, 0.3, 13)
        alphas = [dilation_factor(phi, 0.1, 1.0) for phi in phis]
        assert np.all(np.diff(alphas) > 0)
        ps = np.linspace(0.0, 0.5, 11)
        alphas = [dilation_factor(0.1, p, 1.0) for p in ps]
        assert np.all(np.diff(alphas) < 0)

    def test_nonpositive_rate_raises(self):
        with pytest.raises(WeakFieldViolationError):
            dilation_factor(-0.49, 1.2, 1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match=r"mass must be positive, got -1\.0"):
            dilation_factor(0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match=r"c must be positive, got 0\.0"):
            dilation_factor(0.0, 0.0, 1.0, c=0.0)

    @pytest.mark.parametrize("mass, c", [(1e-200, 1.0), (1.0, 1e-300), (5e-324, 1e-300)])
    def test_a_term_with_a_zero_numerator_is_zero_when_its_denominator_underflows(
        self, mass, c
    ):
        # 2 m^2 c^2 or c^2 underflows to 0; at rest where phi = 0 the rate is still 1
        assert dilation_factor(0.0, 0.0, mass, c) == 1.0
        np.testing.assert_array_equal(dilation_factor(np.zeros(3), np.zeros(3), mass, c), 1.0)

    def test_underflowed_denominators_keep_the_scale_of_the_kinetic_term(self):
        # p^2 and 2 m^2 c^2 both underflow, but (p / m c)^2 / 2 = 0.02 does not
        assert dilation_factor(0.0, 2e-171, 1e-170) == pytest.approx(0.98, abs=1e-15)

    @pytest.mark.parametrize(
        "p, mass, c, rate",
        [
            (1e-162, 1e-161, 1.0, 0.995),  # p^2 underflows to 0, 2 m^2 c^2 is subnormal
            (1e-150, 1e-160, 1e10, 0.5),  # 2 m^2 is subnormal, 2 m^2 c^2 is normal
            (1e154, 1e154, 1.0, 0.5),  # p^2 is finite, 2 m^2 c^2 overflows
        ],
    )
    def test_a_denominator_out_of_the_normal_range_keeps_the_kinetic_term(
        self, p, mass, c, rate
    ):
        assert dilation_factor(0.0, p, mass, c) == pytest.approx(rate, abs=1e-15)
        assert dilation_factor(np.zeros(2), np.full(2, p), mass, c).tolist() == [
            dilation_factor(0.0, p, mass, c)
        ] * 2

    def test_an_overflowed_denominator_does_not_hide_a_huge_kinetic_term(self):
        # 2 m^2 c^2 overflows on the way to 2e200, and (p / m c)^2 / 2 = 5e99
        with pytest.raises(WeakFieldViolationError, match="<= 0"):
            dilation_factor(0.0, 1e150, 1e200, 1e-100)

    @pytest.mark.parametrize(
        "phi, p, mass, c, message",
        [
            (0.0, 0.3, 5e-324, 1.0, "dtau/dt = -inf <= 0"),
            (0.0, 1e200, 1.0, 1.0, "dtau/dt = -inf <= 0"),
            (0.1, 0.0, 1.0, 1e-300, "dtau/dt = inf is not finite"),
            (0.1, 0.3, 5e-324, 1e-300, "dtau/dt = nan is not finite"),
        ],
    )
    def test_a_rate_that_is_not_finite_raises(self, phi, p, mass, c, message):
        with pytest.raises(WeakFieldViolationError, match=re.escape(message)):
            dilation_factor(phi, p, mass, c)

    @pytest.mark.parametrize(
        "mass, c, message",
        [
            (float("nan"), 1.0, "mass must be a finite number, got nan"),
            (1.0, float("nan"), "c must be a finite number, got nan"),
            (1.0, float("inf"), "c must be a finite number, got inf"),
            (1.0, 1e155, r"c must have a finite square, got 1e\+155"),  # c**2 overflows
            (True, 1.0, "mass must be a finite number, got True"),
        ],
    )
    def test_rejects_non_finite_mass_and_c(self, mass, c, message):
        with pytest.raises(ValueError, match=message):
            dilation_factor(0.1, 0.0, mass, c)


class TestWorldline:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            Worldline([0.0], [0.0], [0.0], 1.0)

    def test_samples_must_match_and_be_finite(self):
        with pytest.raises(ValueError, match="t, phi, p must have identical lengths"):
            Worldline([0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="worldline samples must be finite"):
            Worldline([0.0, 1.0], [0.0, np.nan], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "mass, message",
        [(True, "a finite number, got True"), (0.0, r"positive, got 0\.0")],
    )
    def test_mass_follows_the_schema_rule(self, mass, message):
        with pytest.raises(ValueError, match=f"mass must be {message}"):
            Worldline([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], mass)

    @pytest.mark.parametrize("radius", [0, 1])
    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "a finite number, got nan"), (0.0, r"positive, got 0\.0"), (-2.0, "positive")],
    )
    def test_point_mass_radii_follow_the_schema_rule(self, radius, value, message):
        radii = [2.0, 3.0]
        radii[radius] = value
        name = ("r_start", "r_end")[radius]
        with pytest.raises(ValueError, match=f"{name} must be {message}"):
            point_mass_worldline(0.1, *radii, 1.0, samples=3)

    def test_requires_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Worldline([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 1.0)

    def test_csv_round_trip(self, tmp_path):
        w = uniform_gravity_worldline(0.01, 10.0, samples=5, p=0.3)
        rows = zip(w.t.tolist(), w.phi.tolist(), w.p.tolist())
        path = tmp_path / "w.csv"
        path.write_text("t,phi,p\n" + "".join(f"{t!r},{phi!r},{p!r}\n" for t, phi, p in rows))
        again = Worldline.from_csv(path, mass=1.0)
        assert np.array_equal(w.t, again.t)
        assert np.array_equal(w.phi, again.phi)
        assert np.array_equal(w.p, again.p)

    @staticmethod
    def csv_file(tmp_path, text):
        path = tmp_path / "w.csv"
        path.write_text(text)
        return path

    def test_csv_rejects_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            Worldline.from_csv(self.csv_file(tmp_path, "time,phi,p\n0,0,0\n1,0,0\n"), mass=1.0)

    def test_csv_rejects_rows_that_are_not_triples(self, tmp_path):
        with pytest.raises(ValueError, match="worldline CSV rows must have exactly 3 columns"):
            Worldline.from_csv(self.csv_file(tmp_path, "t,phi,p\n0,0\n1,0\n"), mass=1.0)

    def test_csv_rejects_non_numeric(self, tmp_path):
        with pytest.raises(ValueError, match="non-numeric"):
            Worldline.from_csv(self.csv_file(tmp_path, "t,phi,p\n0,0,0\n1,x,0\n"), mass=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: comoving_worldline(1.0, n),
            lambda n: uniform_gravity_worldline(0.01, 1.0, samples=n),
            lambda n: point_mass_worldline(0.05, 2.0, 4.0, 1.0, samples=n),
            lambda n: cruise_worldline(0.1, 1.0, samples=n),
        ],
        ids=["comoving", "uniform_gravity", "point_mass", "cruise"],
    )
    def test_presets_follow_the_samples_rule(self, build):
        # checked before the time grid is allocated
        for samples in (10**20, 10**6 + 1):
            with pytest.raises(ValueError, match=f"samples must be <= 1000000, got {samples}"):
                build(samples)
        with pytest.raises(ValueError, match="samples must be >= 2, got 1"):
            build(1)
        assert build(3).samples == 3

    def test_presets(self):
        w = comoving_worldline(5.0, samples=3)
        assert np.all(w.phi == 0) and np.all(w.p == 0)
        w = uniform_gravity_worldline(0.01, 10.0, samples=11)
        np.testing.assert_allclose(w.phi, 0.01 * w.t)
        w = point_mass_worldline(0.05, 2.0, 4.0, 10.0, samples=11)
        np.testing.assert_allclose(w.phi, -0.05 / (2.0 + 0.2 * w.t))
        w = cruise_worldline(0.4, 3.0)
        assert np.all(w.p == 0.4) and np.all(w.phi == 0)


class TestDilationProfile:
    def test_arrays_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="profile arrays must be equal-length"):
            DilationProfile([1.0, 1.0, 1.0], [0.0, 1.0])

    def test_comoving_is_trivial(self):
        prof = dilation_profile(comoving_worldline(5.0, samples=7))
        assert np.all(prof.alpha == 1.0)
        assert prof.tau_total == pytest.approx(5.0, abs=1e-14)
        assert prof.alpha_final == 1.0

    def test_linear_ramp_integral(self):
        # phi = 0.02 t on [0, 10]: integral of (1 + 0.02 t) = 10 + 0.02 * 100 / 2
        w = uniform_gravity_worldline(0.02, 10.0, samples=2001)
        prof = dilation_profile(w)
        assert prof.tau_total == pytest.approx(11.0, abs=1e-6)
        assert np.all(np.diff(prof.tau) > 0)

    def test_quadrature_self_convergence(self):
        # smooth nonlinear potential: trapezoid error drops ~4x per grid doubling
        def tau_with(samples):
            t = np.linspace(0.0, 10.0, samples)
            w = Worldline(t, 0.05 * np.sin(t / 3.0), np.zeros_like(t), 1.0)
            return dilation_profile(w).tau_total

        fine = tau_with(20001)
        coarse = abs(tau_with(51) - fine)
        finer = abs(tau_with(101) - fine)
        assert finer < coarse / 3.0
        # trapezoid bound: |err| <= (b - a) h^2 max|alpha''| / 12 ~ 1.9e-4 at h = 0.2
        assert coarse < 1.9e-4

    def test_weak_field_guard(self):
        t = np.linspace(0.0, 1.0, 5)
        w = Worldline(t, np.full_like(t, 0.6), np.zeros_like(t), 1.0)
        with pytest.raises(WeakFieldViolationError):
            dilation_profile(w, c=1.0)

    def test_gravitational_only_drops_kinetic_term(self):
        w = uniform_gravity_worldline(0.02, 10.0, samples=11, p=0.5)
        prof = dilation_profile(w, gravitational_only=True)
        np.testing.assert_allclose(prof.alpha, 1.0 + w.phi, atol=1e-15)

    def test_profile_validation(self):
        with pytest.raises(WeakFieldViolationError):
            DilationProfile([1.0, -0.1], [0.0, 0.5])
        with pytest.raises(ValueError, match="tau"):
            DilationProfile([1.0, 1.0], [0.5, 1.0])

    @pytest.mark.parametrize(
        "alpha, tau, error",
        [
            ([1.0, np.nan], [0.0, np.nan], WeakFieldViolationError),
            ([1.0, np.inf], [0.0, 1.0], WeakFieldViolationError),
            ([1.0, 1.0], [0.0, np.nan], ValueError),
            ([1.0, 1.0], [0.0, np.inf], ValueError),
        ],
    )
    def test_profile_rejects_nan_and_inf(self, alpha, tau, error):
        with pytest.raises(error):
            DilationProfile(alpha, tau)

    def test_a_proper_time_past_the_float_range_raises(self):
        # each rate is below 1.5, and the span is within the float range, but
        # the total proper time is not
        w = uniform_gravity_worldline(1e-309, 1.7e308, samples=101)
        with pytest.raises(ValueError, match="finite total"):
            dilation_profile(w, gravitational_only=True)
        # the same span at a rate of 1 stays finite
        assert dilation_profile(comoving_worldline(1.7e308, samples=101)).tau_total < np.inf

    def test_interpolators(self):
        w = uniform_gravity_worldline(0.1, 2.0, samples=2001)
        prof = dilation_profile(w)
        assert np.interp(1.0, w.t, prof.alpha) == pytest.approx(1.1, abs=1e-12)
        # tau(1) = 1 + 0.1/2 = 1.05 for the linear ramp
        assert np.interp(1.0, w.t, prof.tau) == pytest.approx(1.05, abs=1e-9)


class TestClockRateOnArrays:
    @pytest.mark.parametrize("mass,c", [(1.0, 1.0), (2.5, 1.0), (0.7, 3.0), (1.0, 1e6)])
    def test_array_equals_scalar_calls_bit_for_bit(self, mass, c):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-0.4, 0.4, 257) * c**2
        p = rng.uniform(0.0, 0.6, 257) * mass * c
        alpha = dilation_factor(phi, p, mass, c)
        reference = [dilation_factor(float(a), float(b), mass, c) for a, b in zip(phi, p)]
        assert isinstance(alpha, np.ndarray) and alpha.shape == phi.shape
        assert np.array_equal(alpha, reference)
        assert type(dilation_factor(float(phi[3]), float(p[3]), mass, c)) is float

    @pytest.mark.parametrize("gravitational_only", [False, True])
    @pytest.mark.parametrize(
        "worldline",
        [
            comoving_worldline(5.0, samples=7),
            uniform_gravity_worldline(-0.03, 10.0, samples=101, p=0.2, mass=1.5),
            point_mass_worldline(0.2, 1.0, 3.0, 4.0, samples=257, mass=0.8),
            cruise_worldline(0.4, 3.0, samples=5),
            Worldline(
                np.linspace(0.0, 2.0, 9),
                0.3 * np.sin(np.arange(9.0)),
                np.abs(np.cos(np.arange(9.0))),
                1.3,
            ),
        ],
        ids=["comoving", "uniform_gravity", "point_mass", "cruise", "table"],
    )
    def test_profile_matches_per_sample_reference(self, worldline, gravitational_only):
        prof = dilation_profile(worldline, c=1.7, gravitational_only=gravitational_only)
        reference = [
            dilation_factor(float(phi), 0.0 if gravitational_only else float(p), worldline.mass, 1.7)
            for phi, p in zip(worldline.phi, worldline.p)
        ]
        assert np.array_equal(prof.alpha, reference)

    def test_nonpositive_sample_inside_weak_field_bound_is_named(self):
        # |phi| stays below the bound, but samples 1 and 3 move too fast
        w = Worldline([0.0, 1.0, 2.0, 3.0], [0.0, -0.4, 0.1, 0.0], [0.0, 1.2, 0.0, 2.0], 1.0)
        with pytest.raises(WeakFieldViolationError, match=r"phi=-0\.4, p=1\.2:"):
            dilation_profile(w)
        assert dilation_profile(w, gravitational_only=True).alpha[1] == pytest.approx(0.6)

    # at -1.2 the rate is negative too, but the bound is checked first
    @pytest.mark.parametrize("low", [-0.55, -1.2])
    def test_weak_field_bound_checks_largest_potential(self, low):
        t = np.linspace(0.0, 1.0, 5)
        w = Worldline(t, [0.0, 0.1, low, 0.2, 0.0], np.zeros_like(t), 1.0)
        with pytest.raises(WeakFieldViolationError, match=f"{-low:g} exceeds"):
            dilation_profile(w)

    @pytest.mark.parametrize(
        "c, message",
        [
            (0.0, "must be positive"),
            (-1.0, "must be positive"),
            (float("nan"), "must be a finite number"),
            (float("inf"), "must be a finite number"),
            (1e155, "must have a finite square"),
        ],
    )
    def test_profile_checks_c_before_the_bound(self, c, message):
        w = Worldline([0.0, 1.0], [0.0, -1.2], [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match=re.escape(f"c {message}, got {c!r}")):
            dilation_profile(w, c=c)
