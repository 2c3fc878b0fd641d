import io

import numpy as np
import pytest

from tauwork.spacetime import (
    DilationProfile,
    StaticSpacetime,
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
        with pytest.raises(ValueError, match="mass"):
            dilation_factor(0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="speed of light"):
            dilation_factor(0.0, 0.0, 1.0, c=0.0)


class TestWorldline:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            Worldline([0.0], [0.0], [0.0], 1.0)

    def test_requires_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Worldline([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 1.0)

    def test_csv_round_trip(self):
        w = uniform_gravity_worldline(0.01, 10.0, samples=5, p=0.3)
        rows = zip(w.t.tolist(), w.phi.tolist(), w.p.tolist())
        text = "t,phi,p\n" + "".join(f"{t!r},{phi!r},{p!r}\n" for t, phi, p in rows)
        again = Worldline.from_csv(io.StringIO(text), mass=1.0)
        assert np.array_equal(w.t, again.t)
        assert np.array_equal(w.phi, again.phi)
        assert np.array_equal(w.p, again.p)

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            Worldline.from_csv(io.StringIO("time,phi,p\n0,0,0\n1,0,0\n"), mass=1.0)

    def test_csv_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            Worldline.from_csv(io.StringIO("t,phi,p\n0,0,0\n1,x,0\n"), mass=1.0)

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
            dilation_profile(w, StaticSpacetime(c=1.0))

    def test_gravitational_only_drops_kinetic_term(self):
        w = uniform_gravity_worldline(0.02, 10.0, samples=11, p=0.5)
        prof = dilation_profile(w, gravitational_only=True)
        np.testing.assert_allclose(prof.alpha, 1.0 + w.phi, atol=1e-15)

    def test_profile_validation(self):
        with pytest.raises(WeakFieldViolationError):
            DilationProfile([0.0, 1.0], [1.0, -0.1], [0.0, 0.5])
        with pytest.raises(ValueError, match="tau"):
            DilationProfile([0.0, 1.0], [1.0, 1.0], [0.5, 1.0])

    def test_interpolators(self):
        w = uniform_gravity_worldline(0.1, 2.0, samples=2001)
        prof = dilation_profile(w)
        assert np.interp(1.0, prof.t, prof.alpha) == pytest.approx(1.1, abs=1e-12)
        # tau(1) = 1 + 0.1/2 = 1.05 for the linear ramp
        assert np.interp(1.0, prof.t, prof.tau) == pytest.approx(1.05, abs=1e-9)


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
        st = StaticSpacetime(c=1.7)
        prof = dilation_profile(worldline, st, gravitational_only=gravitational_only)
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

    def test_weak_field_bound_checks_largest_potential(self):
        t = np.linspace(0.0, 1.0, 5)
        w = Worldline(t, [0.0, 0.1, -0.55, 0.2, 0.0], np.zeros_like(t), 1.0)
        with pytest.raises(WeakFieldViolationError, match="0.55 exceeds"):
            dilation_profile(w)
