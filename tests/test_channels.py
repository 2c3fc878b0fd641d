import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwork import acceptance
from tauwork.channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    time_ordered_propagator,
    unitality_deviation,
    unitary_channel,
)
from tauwork.operators import (
    HermitianOperator,
    random_hermitian,
    random_unitary,
    require,
    spectral_decompose,
    spectrum_expm,
)
from tauwork.spacetime import (
    comoving_worldline,
    cruise_worldline,
    dilation_profile,
    uniform_gravity_worldline,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI = np.array([SIGMA_X, [[0.0, -1j], [1j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])


def propagator(h, tau):
    """Closed-form e^(-i H tau) through the eigenbasis."""
    return spectrum_expm(spectral_decompose(h), -1j * tau)


def closed_form_propagator(h, tau):
    """e^(-i H tau) of a 2x2 Hermitian H = a0 + r n.sigma with |n| = 1, as
    e^(-i a0 tau) (cos(r tau) - i sin(r tau) n.sigma)."""
    a0 = np.trace(h).real / 2
    a = np.einsum("ij,kji->k", h, PAULI).real / 2  # Tr(H sigma_k) / 2
    r = np.linalg.norm(a)
    n_sigma = np.tensordot(a / r, PAULI, 1)
    return np.exp(-1j * a0 * tau) * (np.cos(r * tau) * np.eye(2) - 1j * np.sin(r * tau) * n_sigma)


def ramp_profile():
    return dilation_profile(uniform_gravity_worldline(0.02, 10.0, samples=2001))


def segment_product(schedule):
    """Reference: prod_k exp(-i H_k dtau_k), later segments on the left, through
    numpy's own eigh. Segment k ends at its bound clipped at tau_total and the
    last one at tau_total; a segment that would start there is empty."""
    total = schedule.dilation.tau_total
    u, start = np.eye(schedule.dim, dtype=complex), 0.0
    for k, spec in enumerate(schedule.segments):
        end = total if k == len(schedule.segments) - 1 else min(schedule.tau_bounds[k], total)
        if end > start:
            h = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            evals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(-1j * (end - start) * evals)) @ vecs.conj().T @ u
            start = end
    return u


class TestChannelConstruction:
    def test_trace_preservation_enforced(self):
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumChannel([0.5 * np.eye(2)])

    def test_needs_at_least_one_kraus(self):
        with pytest.raises(ValueError, match="at least one"):
            QuantumChannel([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            QuantumChannel([np.eye(2), np.eye(3)])

    def test_unitary_channel_is_unital(self):
        ch = unitary_channel(np.eye(2))
        assert ch.is_unital
        u = propagator(HermitianOperator(SIGMA_X), np.pi / 4)
        assert unitary_channel(u).is_unital

    def test_unitary_channel_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_channel([[1.0, 0.0], [0.0, 0.5]])

    def test_amplitude_damping_kraus_family(self):
        ch = amplitude_damping_channel(0.5)
        np.testing.assert_allclose(ch.kraus_ops[0], np.diag([1.0, np.sqrt(0.5)]))
        np.testing.assert_allclose(ch.kraus_ops[1], [[0.0, np.sqrt(0.5)], [0.0, 0.0]])
        assert not ch.is_unital

    def test_depolarizing_is_unital(self):
        for dim in (2, 3):
            assert depolarizing_channel(0.3, dim=dim).is_unital

    @pytest.mark.parametrize("value", [True, np.nan, 1.5, -0.1])
    def test_probabilities_follow_the_schema_rule(self, value):
        message = f"must be a number in \\[0, 1\\], got {value!r}"
        with pytest.raises(ValueError, match=f"gamma {message}"):
            amplitude_damping_channel(value)
        with pytest.raises(ValueError, match=f"lambda {message}"):
            depolarizing_channel(value)


    @pytest.mark.parametrize(
        "build",
        [identity_channel, lambda dim: amplitude_damping_channel(0.5, dim),
         lambda dim: depolarizing_channel(0.5, dim)],
        ids=["identity", "amplitude_damping", "depolarizing"],
    )
    def test_builders_follow_the_dim_rule(self, build):
        # checked before any Kraus operator is built: damping at dim 1024 would
        # take 17 GB. 10**20 comes first, so that a builder without the check
        # fails on numpy's size error before it can allocate at dim 1025
        for dim in (10**20, 1025):
            with pytest.raises(ValueError, match=f"dim must be <= 1024, got {dim}"):
                build(dim)
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            build(1)
        assert build(3).dim == 3

    @pytest.mark.parametrize(
        "build, preset, cap",
        [(lambda dim: amplitude_damping_channel(0.5, dim), "amplitude_damping", 112),
         (lambda dim: depolarizing_channel(0.5, dim), "depolarizing", 48)],
        ids=["amplitude_damping", "depolarizing"],
    )
    def test_presets_whose_kraus_lists_grow_with_dim_are_capped(self, build, preset, cap):
        # the cap itself passes the rule; building there takes seconds, so only the
        # rule is checked. One past it is rejected before any Kraus operator is built
        require(**{f"{preset}_dim": cap})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{preset}_dim must be <= {cap}, got {cap + 1}"):
                build(cap + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5  # one Kraus operator at dim 113 would be 204 kB
        # the sizes that bench/ builds stay below the caps
        assert build({"amplitude_damping": 64, "depolarizing": 16}[preset]).dim <= cap


class TestApply:
    def test_identity_channel_fixes_states(self):
        rho = np.eye(3) / 3
        out = identity_channel(3).apply_matrix(rho)
        assert np.max(np.abs(out - rho)) < 1e-15

    def test_amplitude_damping_on_maximally_mixed(self):
        out = amplitude_damping_channel(0.5).apply_matrix(np.eye(2) / 2)
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-14)

    def test_unital_channel_fixes_maximally_mixed(self):
        ch = unitary_channel(random_unitary(4, 3))
        out = ch.apply_matrix(np.eye(4) / 4)
        assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(12)
        ch = amplitude_damping_channel(0.3)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a @ a.conj().T
            out = ch.apply_matrix(m / np.trace(m).real)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out)[0] > -1e-10


class TestUnitalityDeviation:
    def test_zero_for_unitary_channels(self):
        for dim in range(2, 9):
            ch = unitary_channel(random_unitary(dim, dim + 40))
            assert np.max(np.abs(unitality_deviation(ch))) < 1e-12

    def test_amplitude_damping_hand_value(self):
        g = unitality_deviation(amplitude_damping_channel(0.5))
        np.testing.assert_allclose(g, np.diag([0.25, -0.25]), atol=1e-14)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            n_k = int(rng.integers(1, 4))
            a = rng.normal(size=(dim * n_k, dim)) + 1j * rng.normal(size=(dim * n_k, dim))
            q, r = np.linalg.qr(a)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            ch = QuantumChannel([q[j * dim : (j + 1) * dim] for j in range(n_k)])
            g = unitality_deviation(ch)
            assert abs(np.trace(g)) < 1e-12
            assert np.max(np.abs(g - g.conj().T)) < 1e-15


class TestProperTimePropagator:
    def test_zero_time_is_identity(self):
        h = random_hermitian(3, 2)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(3), atol=1e-15)

    def test_full_period_of_diagonal_system(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        u = propagator(h, 2.0 * np.pi)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_composition(self):
        h = random_hermitian(4, 6)
        u = propagator(h, 0.7) @ propagator(h, 1.1)
        np.testing.assert_allclose(u, propagator(h, 1.8), atol=1e-10)

    def test_unitarity(self):
        u = propagator(random_hermitian(5, 9), 3.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10


class TestPropagatorSchedule:
    def test_must_cover_total_proper_time(self):
        prof = ramp_profile()
        h = HermitianOperator(SIGMA_X)
        with pytest.raises(ValueError, match="covers proper time"):
            PropagatorSchedule([(prof.tau_total / 2, h)], prof, steps=10)

    def test_bounds_must_increase(self):
        prof = ramp_profile()
        h = HermitianOperator(SIGMA_X)
        with pytest.raises(ValueError, match="increasing"):
            PropagatorSchedule([(5.0, h), (5.0, h), (prof.tau_total, h)], prof, steps=10)

    def test_bounds_must_be_finite(self):
        prof = ramp_profile()
        h = HermitianOperator(SIGMA_X)
        for bounds in ([np.nan, prof.tau_total], [5.0, np.inf]):
            with pytest.raises(ValueError, match="tau_end must be a finite number"):
                PropagatorSchedule(list(zip(bounds, [h, h])), prof, steps=10)
        with pytest.raises(ValueError, match=r"tau_end must be positive, got -1\.0"):
            PropagatorSchedule([(-1.0, h), (prof.tau_total, h)], prof, steps=10)

    def test_needs_a_segment(self):
        with pytest.raises(ValueError, match="schedule needs at least one segment"):
            PropagatorSchedule([], ramp_profile(), steps=10)

    def test_segments_share_one_dimension(self):
        prof = ramp_profile()
        segments = [(1.0, HermitianOperator(SIGMA_X)), (prof.tau_total, random_hermitian(3, 0))]
        with pytest.raises(ValueError, match="all schedule segments must share one dimension"):
            PropagatorSchedule(segments, prof, steps=10)

    def test_steps_validation(self):
        prof = ramp_profile()
        with pytest.raises(ValueError, match="steps"):
            PropagatorSchedule.constant(HermitianOperator(SIGMA_X), prof, steps=0)

    def test_boolean_steps_rejected(self):
        prof = ramp_profile()
        with pytest.raises(ValueError, match="steps must be an integer, got True"):
            PropagatorSchedule.constant(HermitianOperator(SIGMA_X), prof, steps=True)

    def test_steps_cap(self):
        prof = ramp_profile()
        with pytest.raises(ValueError, match="steps must be <= 1000000000, got 1000000001"):
            PropagatorSchedule.constant(HermitianOperator(SIGMA_X), prof, steps=10**9 + 1)


class TestTimeOrderedPropagator:
    def test_is_the_segment_product_at_every_step_count(self):
        rng = np.random.default_rng(2024)
        prof = ramp_profile()
        total = prof.tau_total
        worst = 0.0
        for case in range(40):
            dim = int(rng.integers(2, 9))
            n_seg = 1 + case % 8
            bounds = list(np.sort(rng.uniform(0.0, total, n_seg - 1))) + [total]
            if case % 5 == 4 and n_seg >= 2:
                # the last interior bound past tau_total leaves a segment empty
                bounds[-2:] = [1.1 * total, 1.2 * total]
            hams = [random_hermitian(dim, int(rng.integers(1 << 30))) for _ in bounds]
            products = [
                time_ordered_propagator(PropagatorSchedule(list(zip(bounds, hams)), prof, steps))
                for steps in (1, 2, 7, 64, 1000)
            ]
            assert all(np.array_equal(u, products[0]) for u in products), case
            sched = PropagatorSchedule(list(zip(bounds, hams)), prof, 1)
            worst = max(worst, np.max(np.abs(products[0] - segment_product(sched))))
        assert worst < 1e-12

    @pytest.mark.parametrize("steps", [1, 2])
    def test_a_bound_splits_the_segments_at_every_step_count(self, steps):
        # tau = t on [0, 10]: one slice or two, the bound at 5.0 gives each
        # segment half of the proper time
        prof = dilation_profile(comoving_worldline(10.0, samples=11))
        h1 = HermitianOperator(np.diag([0.0, 1.0]))
        h2 = HermitianOperator(SIGMA_X)
        sched = PropagatorSchedule([(5.0, h1), (10.0, h2)], prof, steps)
        expected = closed_form_propagator(SIGMA_X, 5.0) @ np.diag([1.0, np.exp(-5j)])
        assert np.max(np.abs(time_ordered_propagator(sched) - expected)) < 1e-14

    def test_constant_schedule_matches_closed_form(self):
        prof = ramp_profile()
        h = random_hermitian(3, 14)
        exact = propagator(h, prof.tau_total)
        for steps in (1, 3, 50):
            u = time_ordered_propagator(PropagatorSchedule.constant(h, prof, steps))
            assert np.max(np.abs(u - exact)) < 1e-10

    def test_commuting_family_closed_form(self):
        # H(tau) = f(tau) H0 with piecewise-constant f: overall phase is
        # exp(-i (integral of f dtau) H0)
        prof = ramp_profile()
        h0 = random_hermitian(2, 4)
        total = prof.tau_total
        cut = 0.4 * total
        sched = PropagatorSchedule(
            [(cut, HermitianOperator(h0.matrix)), (total, HermitianOperator(2.0 * h0.matrix))],
            prof,
            steps=4096,
        )
        effective = cut + 2.0 * (total - cut)
        exact = closed_form_propagator(h0.matrix, effective)
        assert np.max(np.abs(time_ordered_propagator(sched) - exact)) < 1e-13

    def test_unitary_at_every_step_count(self):
        prof = ramp_profile()
        h1 = HermitianOperator(np.diag([0.0, 1.0]))
        h2 = HermitianOperator(SIGMA_X)
        total = prof.tau_total
        for steps in (1, 7, 64, 513):
            sched = PropagatorSchedule([(0.5 * total, h1), (total, h2)], prof, steps)
            u = time_ordered_propagator(sched)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9

    def test_non_commuting_drive_is_exact_at_every_step_count(self):
        # two segments, irrationally placed break: no step count moves U
        prof = ramp_profile()
        total = prof.tau_total
        h1 = HermitianOperator(0.9 * np.diag([1.0, -1.0]).astype(complex) + 0.4 * SIGMA_X)
        h2 = HermitianOperator(h1.matrix + 0.5 * np.array([[0, -1j], [1j, 0]]))
        bounds = [total / np.sqrt(2.0), total]
        products = [
            time_ordered_propagator(PropagatorSchedule(list(zip(bounds, [h1, h2])), prof, n))
            for n in (64, 256, 1024, 65536)
        ]
        assert all(np.array_equal(u, products[0]) for u in products)
        exact = closed_form_propagator(h2.matrix, total - bounds[0]) @ closed_form_propagator(
            h1.matrix, bounds[0]
        )
        assert np.max(np.abs(products[0] - exact)) < 1e-14

    def test_empty_segments_past_the_total_change_nothing(self):
        # a schedule whose last interior bounds pass tau_total is, bit for bit, the
        # schedule that ends its last non-empty segment at tau_total
        rng = np.random.default_rng(276)
        profiles = [ramp_profile(), dilation_profile(cruise_worldline(0.4, 7.0, 301))]
        for case in range(40):
            prof = profiles[case % 2]
            total = prof.tau_total
            dim = int(rng.integers(2, 6))
            n_seg = 1 + case % 5
            bounds = list(np.sort(rng.uniform(0.0, total, n_seg - 1))) + [total]
            kept = len(bounds)
            if case % 4 == 3 and n_seg >= 2:
                # interior bounds past tau_total leave segments empty
                bounds[-2:] = [1.1 * total, 1.2 * total]
                kept -= 1
            hams = [random_hermitian(dim, int(rng.integers(1 << 30))) for _ in bounds]
            trimmed = list(zip(bounds[: kept - 1] + [total], hams[:kept]))
            expected = time_ordered_propagator(PropagatorSchedule(trimmed, prof, 1))
            for steps in (1, 2, 7, 1000, int(rng.integers(1, 320_001))):
                sched = PropagatorSchedule(list(zip(bounds, hams)), prof, steps)
                u = time_ordered_propagator(sched)
                assert np.array_equal(u, expected), (case, steps)
                assert np.max(np.abs(u - segment_product(sched))) < 1e-12, (case, steps)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(1e-3, np.pi), steps=st.integers(1, 1000))
    def test_two_level_segment_is_the_closed_form(self, seed, theta, steps):
        # exp(-i theta n.sigma) = cos(theta) - i sin(theta) n.sigma for a unit vector n;
        # theta in (0, pi] and n on the sphere reach every 2x2 unitary of determinant 1
        n = np.random.default_rng(seed).normal(size=3)
        h = HermitianOperator(np.tensordot(n / np.linalg.norm(n), PAULI, 1))
        exact = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * h.matrix
        by_spectrum = spectrum_expm(spectral_decompose(h), -1j * theta)
        # tau = t along a comoving clock, so the one segment lasts theta
        prof = dilation_profile(comoving_worldline(theta))
        by_schedule = time_ordered_propagator(PropagatorSchedule.constant(h, prof, steps))
        assert np.max(np.abs(by_spectrum - exact)) < 1e-14
        assert np.max(np.abs(by_schedule - exact)) < 1e-14

    @pytest.mark.parametrize("steps", [1, 10, 1000, 100_000])
    def test_criterion_drive_is_the_closed_form_product(self, steps):
        # criterion 8's drive against the ordered product of 2x2 closed forms,
        # with no eigensolver, at rounding level for every step count
        hams = acceptance._two_level_schedule_segments()
        prof = acceptance._ramp_profile()
        total = prof.tau_total
        fracs = sorted([1 / np.sqrt(7), 1 / np.sqrt(3), 1 / np.sqrt(2), 1 / np.sqrt(1.44)])
        bounds = [f * total for f in fracs] + [total]
        u = time_ordered_propagator(PropagatorSchedule(list(zip(bounds, hams)), prof, steps))
        exact = np.eye(2)
        for h, d_tau in zip(hams, np.diff(bounds, prepend=0.0)):
            exact = closed_form_propagator(h.matrix, d_tau) @ exact
        assert np.max(np.abs(u - exact)) < 1e-14

    def test_peak_allocation_does_not_grow_with_steps(self):
        # no slice grid is built: an array of 320,001 slice edges alone would
        # take 2.56 MB
        prof = ramp_profile()
        total = prof.tau_total
        hams = [random_hermitian(3, seed) for seed in (1, 2, 3)]
        bounds = [0.3 * total, 0.7 * total, total]
        sched = PropagatorSchedule(list(zip(bounds, hams)), prof, 320_000)
        tracemalloc.start()
        try:
            time_ordered_propagator(sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
