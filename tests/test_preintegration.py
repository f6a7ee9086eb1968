import numpy as np
import pytest

from monovio import geometry as geo
from monovio.preintegration import (
    BiasState,
    FrameStates,
    ImuSamples,
    NoiseParams,
    PreintegratedDelta,
    PreintegrationError,
    StackedDeltas,
    covariance_sqrt,
    imu_jacobians_batch,
    imu_residuals_batch,
    integrate_segment,
    merge_deltas,
    segment_samples,
)
from monovio.simulator import ScenarioConfig, build_scenario
from reference import (
    integrate_segment_stepwise,
    merge_deltas_reintegrated,
    sample_list,
    segment_samples_bisect,
    segment_samples_searchsorted,
    stack_samples,
)

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0)


def make_samples(rate, duration, accel_fn, gyro_fn):
    n = int(round(rate * duration))
    ts = np.arange(n + 1) / rate
    return ImuSamples(ts, [accel_fn(t) for t in ts], [gyro_fn(t) for t in ts])


def const_fn(v):
    v = np.asarray(v, dtype=float)
    return lambda t: v


def matrix_midpoint_oracle(rate, duration, accel_fn, gyro_fn, ba=np.zeros(3), bw=np.zeros(3)):
    """Independent fine-step integrator in rotation-matrix form."""
    n = int(round(rate * duration))
    dt = duration / n
    R = np.eye(3)
    alpha = np.zeros(3)
    beta = np.zeros(3)
    for i in range(n):
        t0, t1 = i * dt, (i + 1) * dt
        w_mid = 0.5 * (gyro_fn(t0) + gyro_fn(t1)) - bw
        ang = np.linalg.norm(w_mid) * dt
        if ang < 1e-12:
            dR = np.eye(3) + geo.skew(w_mid * dt)
        else:
            axis = w_mid * dt / ang
            K = geo.skew(axis)
            dR = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
        R1 = R @ dR
        a_mid = 0.5 * (R @ (accel_fn(t0) - ba) + R1 @ (accel_fn(t1) - ba))
        alpha = alpha + beta * dt + 0.5 * a_mid * dt * dt
        beta = beta + a_mid * dt
        R = R1
    return alpha, beta, R


class TestMeanIntegration:
    def test_constant_acceleration_closed_form(self):
        samples = make_samples(100, 1.0, const_fn([1, 0, 0]), const_fn([0, 0, 0]))
        d = integrate_segment(samples, BiasState(), NO_NOISE)
        np.testing.assert_allclose(d.alpha, [0.5, 0, 0], atol=1e-12)
        np.testing.assert_allclose(d.beta, [1.0, 0, 0], atol=1e-12)
        assert geo.quat_angle(d.gamma) < 1e-15
        assert d.dt_total == pytest.approx(1.0)

    def test_constant_rotation_matches_exp_map(self):
        samples = make_samples(200, 0.5, const_fn([0, 0, 0]), const_fn([0, 0, np.pi]))
        d = integrate_segment(samples, BiasState(), NO_NOISE)
        expected = geo.quat_exp([0, 0, np.pi * 0.5])
        assert geo.quat_angle_between(d.gamma, expected) < 1e-6

    def test_bias_cancels_measurement(self):
        samples = make_samples(100, 1.0, const_fn([0.1, 0, 0]), const_fn([0, 0, 0]))
        d = integrate_segment(samples, BiasState(accel=[0.1, 0, 0]), NO_NOISE)
        np.testing.assert_array_equal(d.alpha, np.zeros(3))
        np.testing.assert_array_equal(d.beta, np.zeros(3))

    def test_rejects_non_monotonic(self):
        samples = ImuSamples([0.0, -0.01], np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(PreintegrationError):
            integrate_segment(samples, BiasState(), NO_NOISE)

    def test_rejects_gap(self):
        samples = ImuSamples([0.0, 0.2], np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(PreintegrationError):
            integrate_segment(samples, BiasState(), NO_NOISE)

    def test_smooth_segment_against_fine_oracle(self):
        # 200 Hz production integration vs an independent 20 kHz matrix-form
        # oracle on a gently excited segment
        rng = np.random.default_rng(42)
        for _ in range(3):
            fa = rng.uniform(0.04, 0.08, 3)
            fw = rng.uniform(0.04, 0.08, 3)
            pa = rng.uniform(0, 2 * np.pi, 3)
            pw = rng.uniform(0, 2 * np.pi, 3)
            aa = rng.uniform(0.1, 0.3, 3)
            aw = rng.uniform(0.02, 0.04, 3)

            def accel_fn(t):
                return aa * np.sin(2 * np.pi * fa * t + pa) + np.array([0.1, -0.2, 9.8])

            def gyro_fn(t):
                return aw * np.sin(2 * np.pi * fw * t + pw)

            samples = make_samples(200, 1.0, accel_fn, gyro_fn)
            d = integrate_segment(samples, BiasState(), NO_NOISE)
            alpha_o, beta_o, R_o = matrix_midpoint_oracle(20000, 1.0, accel_fn, gyro_fn)
            assert np.linalg.norm(d.alpha - alpha_o) < 1e-6
            assert np.linalg.norm(d.beta - beta_o) < 1e-6
            assert rotation_gap(geo.quat_to_rot(d.gamma), R_o) < 1e-7


def rotation_gap(Ra, Rb):
    """Small-angle distance between rotations; linear in the perturbation so
    float rounding is not sqrt-amplified the way arccos(trace) is."""
    E = Ra.T @ Rb
    return 0.5 * np.linalg.norm([E[2, 1] - E[1, 2], E[0, 2] - E[2, 0], E[1, 0] - E[0, 1]])


class TestCovariance:
    def test_zero_noise_keeps_zero_covariance(self):
        samples = make_samples(100, 0.5, const_fn([0.3, 0.1, 9.8]), const_fn([0.1, 0, 0.2]))
        d = integrate_segment(samples, BiasState(), NO_NOISE)
        np.testing.assert_array_equal(d.P, np.zeros((15, 15)))

    def test_wiener_closed_form(self):
        # accel white noise only, identity attitude: continuous-time closed form
        sigma_a = 0.05
        noise = NoiseParams(sigma_a, 0.0, 0.0, 0.0)
        T = 1.0
        samples = make_samples(200, T, const_fn([0, 0, 0]), const_fn([0, 0, 0]))
        d = integrate_segment(samples, BiasState(), noise)
        s2 = sigma_a**2
        np.testing.assert_allclose(d.P[3:6, 3:6], s2 * T * np.eye(3), rtol=0.02, atol=1e-12)
        np.testing.assert_allclose(d.P[0:3, 0:3], s2 * T**3 / 3 * np.eye(3), rtol=0.02, atol=1e-12)
        np.testing.assert_allclose(d.P[0:3, 3:6], s2 * T**2 / 2 * np.eye(3), rtol=0.02, atol=1e-12)

    def test_psd_and_symmetric_along_random_motion(self):
        rng = np.random.default_rng(3)
        noise = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
        accel, gyro = [rng.normal(0, 1, 3)], [rng.normal(0, 0.5, 3)]
        for k in range(1, 151):
            accel.append(rng.normal(0, 1, 3))
            gyro.append(rng.normal(0, 0.5, 3))
            samples = ImuSamples(0.005 * np.arange(k + 1), accel, gyro)
            d = integrate_segment(samples, BiasState(), noise)
            np.testing.assert_array_equal(d.P, d.P.T)
            assert np.linalg.eigvalsh(d.P).min() > -1e-12

    def test_monte_carlo_consistency(self):
        # dispersion of noisy mean integrations must match propagated P
        rng = np.random.default_rng(7)
        rate, T = 100.0, 0.4
        n = int(rate * T)
        dt = 1.0 / rate
        sigma_a, sigma_w = 0.05, 0.005
        noise = NoiseParams(sigma_a, sigma_w, 0.0, 0.0)
        accel_clean = np.tile([0.2, -0.1, 9.8], (n + 1, 1))
        gyro_clean = np.tile([0.3, 0.1, -0.2], (n + 1, 1))
        ts = np.arange(n + 1) * dt

        ref = integrate_segment(ImuSamples(ts, accel_clean, gyro_clean), BiasState(), noise)

        runs = 1500
        errs = np.zeros((runs, 9))
        sa = sigma_a / np.sqrt(dt)
        sw = sigma_w / np.sqrt(dt)
        for k in range(runs):
            na = rng.normal(0, sa, (n + 1, 3))
            nw = rng.normal(0, sw, (n + 1, 3))
            samples = ImuSamples(ts, accel_clean + na, gyro_clean + nw)
            d = integrate_segment(samples, BiasState(), NO_NOISE)
            dq = geo.quat_mul(geo.quat_inverse(ref.gamma), d.gamma)
            errs[k, 0:3] = d.alpha - ref.alpha
            errs[k, 3:6] = d.beta - ref.beta
            errs[k, 6:9] = 2.0 * dq[1:] * np.sign(dq[0])
        sample_cov = np.cov(errs.T)
        P9 = ref.P[:9, :9]
        # dominant entries: diagonal plus strongly correlated off-diagonals
        for i in range(9):
            assert sample_cov[i, i] == pytest.approx(P9[i, i], rel=0.15)
        for i in range(9):
            for j in range(9):
                if i != j and abs(P9[i, j]) > 0.2 * np.sqrt(P9[i, i] * P9[j, j]):
                    assert sample_cov[i, j] == pytest.approx(P9[i, j], rel=0.2)


class TestBiasCorrection:
    def _excited_delta(self, noise=NO_NOISE):
        # gentle excitation: the first-order Jacobian recursion carries an
        # O(dt * |w|^2) discretization term that would mask the quantities
        # these tests measure at aggressive rates
        def accel_fn(t):
            return np.array([0.3 * np.sin(t * 2), 0.2 * np.cos(t * 1.5), 9.8 + 0.2 * np.sin(t)])

        def gyro_fn(t):
            return np.array([0.1 * np.sin(t * 2), -0.08 * np.cos(t * 1.2), 0.12 * np.sin(t)])

        return integrate_segment(make_samples(200, 0.5, accel_fn, gyro_fn), BiasState(), noise)

    def test_zero_delta_is_bitwise_identity(self):
        d = self._excited_delta()
        a, b, g = d.correct_for_bias(BiasState())
        assert a is d.alpha and b is d.beta and g is d.gamma

    def test_accel_correction_is_exact_linear_map(self):
        d = self._excited_delta()
        dba = np.array([1e-3, 0, 0])
        a, b, _ = d.correct_for_bias(BiasState(accel=dba))
        # exact up to one float add/subtract rounding
        np.testing.assert_allclose(a - d.alpha, d.j_alpha_ba @ dba, rtol=0, atol=1e-15)
        np.testing.assert_allclose(b - d.beta, d.j_beta_ba @ dba, rtol=0, atol=1e-15)

    def test_jacobian_blocks_match_finite_differences(self):
        d = self._excited_delta()
        h = 1e-5
        for axis in range(3):
            for which in ("accel", "gyro"):
                e = np.zeros(3)
                e[axis] = h
                bias_p = BiasState(**{which: e})
                bias_m = BiasState(**{which: -e})
                dp = d.repropagate(bias_p)
                dm = d.repropagate(bias_m)
                fd_alpha = (dp.alpha - dm.alpha) / (2 * h)
                fd_beta = (dp.beta - dm.beta) / (2 * h)
                if which == "accel":
                    an_alpha = d.j_alpha_ba[:, axis]
                    an_beta = d.j_beta_ba[:, axis]
                else:
                    an_alpha = d.j_alpha_bw[:, axis]
                    an_beta = d.j_beta_bw[:, axis]
                assert np.linalg.norm(fd_alpha - an_alpha) <= 1e-4 * max(
                    1e-3, np.linalg.norm(an_alpha)
                )
                assert np.linalg.norm(fd_beta - an_beta) <= 1e-4 * max(
                    1e-3, np.linalg.norm(an_beta)
                )
                if which == "gyro":
                    dq_p = geo.quat_mul(geo.quat_inverse(d.gamma), dp.gamma)
                    dq_m = geo.quat_mul(geo.quat_inverse(d.gamma), dm.gamma)
                    fd_theta = (2 * dq_p[1:] * np.sign(dq_p[0]) - 2 * dq_m[1:] * np.sign(dq_m[0])) / (2 * h)
                    an_theta = d.j_gamma_bw[:, axis]
                    assert np.linalg.norm(fd_theta - an_theta) <= 1e-4 * np.linalg.norm(an_theta)

    def test_correction_error_is_second_order(self):
        d = self._excited_delta()
        mags = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
        direction = np.array([0.6, -0.4, 0.7])
        direction /= np.linalg.norm(direction)
        errs = []
        for m in mags:
            nb = BiasState(gyro=direction * m)
            a_c, b_c, g_c = d.correct_for_bias(nb)
            rp = d.repropagate(nb)
            err = np.sqrt(
                np.sum((a_c - rp.alpha) ** 2)
                + np.sum((b_c - rp.beta) ** 2)
                + geo.quat_angle_between(g_c, rp.gamma) ** 2
            )
            errs.append(err)
        slope = np.polyfit(np.log(mags), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1
        # ratio err/|db|^2 stays bounded across the sweep
        ratios = np.array(errs) / mags**2
        assert ratios.max() / ratios.min() < 3.0

    def test_small_delta_agreement(self):
        d = self._excited_delta()
        nb = BiasState(gyro=[1e-4, 0, 0], accel=[1e-4, 0, 0])
        a_c, _, _ = d.correct_for_bias(nb)
        rp = d.repropagate(nb)
        assert np.linalg.norm(a_c - rp.alpha) < 1e-9


class TestRepropagate:
    def test_idempotent_at_linearization_bias(self):
        samples = make_samples(100, 0.5, const_fn([0.2, 0.1, 9.8]), const_fn([0.1, -0.2, 0.3]))
        d = integrate_segment(samples, BiasState(), NO_NOISE)
        d2 = d.repropagate(BiasState())
        np.testing.assert_allclose(d2.alpha, d.alpha, atol=1e-15)
        np.testing.assert_allclose(d2.beta, d.beta, atol=1e-15)
        np.testing.assert_allclose(d2.gamma, d.gamma, atol=1e-15)

    def test_true_bias_recovers_clean_motion(self):
        ba = np.array([0.05, -0.03, 0.02])
        bw = np.array([0.01, 0.02, -0.015])
        accel = const_fn(np.array([0.3, 0.2, 9.8]) + ba)
        gyro = const_fn(np.array([0.2, -0.1, 0.3]) + bw)
        biased = integrate_segment(make_samples(200, 0.5, accel, gyro), BiasState(), NO_NOISE)
        fixed = biased.repropagate(BiasState(accel=ba, gyro=bw))
        clean = integrate_segment(
            make_samples(200, 0.5, const_fn([0.3, 0.2, 9.8]), const_fn([0.2, -0.1, 0.3])),
            BiasState(),
            NO_NOISE,
        )
        np.testing.assert_allclose(fixed.alpha, clean.alpha, atol=1e-12)
        np.testing.assert_allclose(fixed.gamma, clean.gamma, atol=1e-12)

    def test_empty_buffer_rejected(self):
        d = PreintegratedDelta(BiasState(), NO_NOISE)
        with pytest.raises(PreintegrationError):
            d.repropagate(BiasState())


class TestMergeAndSegment:
    def test_merge_equals_concatenated_integration(self):
        def accel_fn(t):
            return np.array([np.sin(t), 0.5 * np.cos(2 * t), 9.8])

        def gyro_fn(t):
            return np.array([0.3 * np.cos(t), 0.2, -0.1 * np.sin(t)])

        samples = make_samples(100, 0.6, accel_fn, gyro_fn)
        mid = 30
        d1 = integrate_segment(samples[: mid + 1], BiasState(), NO_NOISE)
        d2 = integrate_segment(samples[mid:], BiasState(), NO_NOISE)
        merged = merge_deltas(d1, d2)
        whole = integrate_segment(samples, BiasState(), NO_NOISE)
        np.testing.assert_allclose(merged.alpha, whole.alpha, atol=1e-12)
        np.testing.assert_allclose(merged.beta, whole.beta, atol=1e-12)
        np.testing.assert_allclose(merged.gamma, whole.gamma, atol=1e-12)

    def test_segment_interpolates_boundaries(self):
        samples = make_samples(100, 1.0, lambda t: np.array([t, 0, 0]), const_fn([0, 0, 0]))
        seg = segment_samples(samples, 0.123, 0.456)
        assert seg.t[0] == pytest.approx(0.123)
        assert seg.t[-1] == pytest.approx(0.456)
        np.testing.assert_allclose(seg.accel[0], [0.123, 0, 0], atol=1e-12)
        # interior samples are the raw stream
        assert seg.t[1] == pytest.approx(0.13)

    def test_interpolate_sample(self):
        # both channels of both ends, between the two samples they fall in
        s = ImuSamples([0.0, 0.01, 0.02], [[0, 0, 0], [1, 2, 3], [3, 2, 1]],
                       [[0, 0, 0], [4, 5, 6], [0, 1, 2]])
        seg = segment_samples(s, 0.005, 0.015)
        np.testing.assert_array_equal(seg.t, [0.005, 0.01, 0.015])
        np.testing.assert_allclose(seg.accel[[0, 2]], [[0.5, 1.0, 1.5], [2.0, 2.0, 2.0]])
        np.testing.assert_allclose(seg.gyro[[0, 2]], [[2.0, 2.5, 3.0], [2.0, 3.0, 4.0]])
        # the stream itself is left as it was
        np.testing.assert_array_equal(s.t, [0.0, 0.01, 0.02])
        np.testing.assert_array_equal(s.accel[0], [0, 0, 0])


class TestBatchedTransitions:
    """integrate_segment builds its transitions in one batch; P and J must
    equal the per-step construction bit for bit."""

    NOISE = NoiseParams(0.02, 2e-4, 1e-4, 1e-5)
    BIAS = BiasState([0.05, -0.02, 0.03], [0.004, -0.003, 0.002])

    @pytest.fixture(scope="class")
    def stream(self):
        # a simulated 200 Hz stream with sensor noise and non-zero biases
        return build_scenario(ScenarioConfig(duration=2.0, seed=3)).imu

    @pytest.mark.parametrize("n", [2, 41, 81])
    def test_bitwise_equal_to_stepwise(self, stream, n):
        for start in (0, 57, 230):
            seg = stream[start : start + n]
            delta = integrate_segment(seg, self.BIAS, self.NOISE)
            P, J = integrate_segment_stepwise(seg, self.BIAS, self.NOISE)
            assert np.array_equal(delta.P, P) and np.array_equal(delta.J, J)
            assert delta.P.tobytes() == P.tobytes()  # signed zeros too

    @pytest.mark.parametrize("n", [2, 41, 81])
    def test_within_rounding_of_per_step_symmetrization(self, stream, n):
        # P is symmetrized once, after the last step, so it is exactly
        # symmetric; symmetrizing after every step moves it by rounding only
        for start in (0, 57, 230):
            seg = stream[start : start + n]
            delta = integrate_segment(seg, self.BIAS, self.NOISE)
            P, J = integrate_segment_stepwise(seg, self.BIAS, self.NOISE, symmetrize_each_step=True)
            assert np.array_equal(delta.P, delta.P.T)
            assert np.abs(delta.P - P).max() <= 1e-14 * np.abs(P).max()
            assert np.abs(delta.J - J).max() <= 1e-14 * np.abs(J).max()

    def test_merge_bitwise_equal_to_stepwise(self, stream):
        d1 = integrate_segment(stream[0:41], self.BIAS, self.NOISE)
        d2 = integrate_segment(stream[40:81], BiasState(), self.NOISE)
        merged = merge_deltas(d1, d2)
        P, J = integrate_segment_stepwise(stream[0:81], self.BIAS, self.NOISE)
        assert np.array_equal(merged.P, P) and np.array_equal(merged.J, J)

    @pytest.mark.parametrize("n", [2, 41, 81])
    def test_merge_continues_bitwise_from_first(self, stream, n):
        # merging two adjacent deltas continues from the first one's start
        # and bias: it must equal integrating, at that bias, the stretch of
        # the stream that the two span, whatever the split
        for start, n2 in ((0, 2), (57, 41), (230, 81)):
            d1 = integrate_segment(stream[start : start + n], self.BIAS, self.NOISE)
            tail = stream[start + n - 1 : start + n - 1 + n2]
            d2 = integrate_segment(tail, BiasState(), self.NOISE)
            merged = merge_deltas(d1, d2)
            ref = integrate_segment(stream[start : start + n - 1 + n2], self.BIAS, self.NOISE)
            for name in ("P", "J", "alpha", "beta", "gamma"):
                assert np.array_equal(getattr(merged, name), getattr(ref, name)), name
            assert merged.P.tobytes() == ref.P.tobytes()  # signed zeros too
            assert merged.dt_total == ref.dt_total and len(merged.samples) == len(ref.samples)


class TestContinuedMerge:
    """merge_deltas continues the first delta's integration over the second
    delta's samples; the delta it makes must be the whole buffer's
    re-integration (merge_deltas_reintegrated) bit for bit."""

    NOISE = TestBatchedTransitions.NOISE
    BIAS = TestBatchedTransitions.BIAS
    OTHER_BIAS = BiasState([-0.03, 0.01, 0.02], [0.002, 0.001, -0.004])

    @pytest.fixture(scope="class")
    def stream(self):
        return build_scenario(ScenarioConfig(duration=2.0, seed=3,
                                             noise=TestBatchedTransitions.NOISE)).imu

    def assert_same_delta(self, got, ref):
        for name in ("alpha", "beta", "gamma", "P", "P_end", "J"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert got.dt_total == ref.dt_total
        assert got.lin_bias is ref.lin_bias
        for name in ("t", "accel", "gyro"):
            assert getattr(got.samples, name).tobytes() == getattr(ref.samples, name).tobytes(), name
        if ref.path is None:
            assert got.path is None
            return
        for name in ("t", "alpha", "beta", "gamma"):
            assert getattr(got.path, name).tobytes() == getattr(ref.path, name).tobytes(), name

    def deltas(self, stream, cuts):
        """Deltas over consecutive stretches of stream between the cut rows,
        the first at BIAS, the others at OTHER_BIAS."""
        return [integrate_segment(stream[a : b + 1], self.OTHER_BIAS if k else self.BIAS, self.NOISE)
                for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))]

    @pytest.mark.parametrize("cuts", [(0, 1, 2), (0, 40, 80), (57, 58, 98), (100, 181, 182), (3, 44, 130)])
    def test_equals_reintegration(self, stream, cuts):
        first, second = self.deltas(stream, cuts)
        self.assert_same_delta(merge_deltas(first, second), merge_deltas_reintegrated(first, second))

    def test_chained_merges_equal_reintegration(self, stream):
        # a merged delta merged again, twice: each merge continues the last
        d1, d2, d3, d4 = self.deltas(stream, (10, 50, 90, 91, 131))
        merged, ref = d1, d1
        for d in (d2, d3, d4):
            merged, ref = merge_deltas(merged, d), merge_deltas_reintegrated(ref, d)
            self.assert_same_delta(merged, ref)
        self.assert_same_delta(ref, integrate_segment(stream[10:132], self.BIAS, self.NOISE))

    def test_repropagated_first_delta(self, stream):
        # a first delta that repropagate rebuilt, itself a merge, at a new
        # bias: the merge continues at that bias
        d1, d2, d3 = self.deltas(stream, (0, 40, 80, 120))
        first = merge_deltas(d1, d2).repropagate(self.OTHER_BIAS)
        self.assert_same_delta(merge_deltas(first, d3), merge_deltas_reintegrated(first, d3))

    def test_fallbacks_below_two_samples(self, stream):
        # a delta of fewer than two samples keeps none, so the other delta is
        # integrated again at the first one's bias
        single = integrate_segment(stream[40:41], self.OTHER_BIAS, self.NOISE)
        first, second = self.deltas(stream, (0, 40, 80))
        assert not single.samples
        for pair in ((single, second), (first, single)):
            merged = merge_deltas(*pair)
            self.assert_same_delta(merged, merge_deltas_reintegrated(*pair))
            assert merged.lin_bias is pair[0].lin_bias
        with pytest.raises(PreintegrationError):
            merge_deltas(single, single)

    def test_rejects_deltas_that_are_not_adjacent(self, stream):
        first, _ = self.deltas(stream, (0, 40, 80))
        _, later = self.deltas(stream, (0, 41, 80))
        with pytest.raises(PreintegrationError, match="not adjacent"):
            merge_deltas(first, later)


class TestSegmentBoundaries:
    """segment_samples copies rows of the stacked stream; its segments must
    be the ones the list-based references cut from a list of per-sample
    objects, snapping included, bit for bit."""

    # +-1e-9 exactly: t0 + 1e-9 (t1 - 1e-9) lands on a sample time, where
    # the right and left sides of the search differ
    OFFSETS = [0.0, 0.4e-9, -0.4e-9, 1e-9, -1e-9, 0.99e-9, -0.99e-9, 1.01e-9, -1.01e-9,
               3e-9, 0.0025]

    @staticmethod
    def assert_same_segment(got, want):
        assert len(got) == len(want)
        assert got.t.tobytes() == want.t.tobytes()
        assert got.accel.tobytes() == want.accel.tobytes()
        assert got.gyro.tobytes() == want.gyro.tobytes()

    def test_row_selection_does_not_convert_again(self, monkeypatch):
        # selected rows are already float and shaped: a slice, an index
        # array and a repeated index take them as they are
        s = ImuSamples(0.005 * np.arange(6), np.arange(18.0).reshape(6, 3), -np.arange(18.0))

        def converted(self):
            raise AssertionError("rows converted again")

        monkeypatch.setattr(ImuSamples, "__post_init__", converted)
        for rows in (slice(1, 4), np.array([0, 2, 5]), [3, 3]):
            got = s[rows]
            for name in ("t", "accel", "gyro"):
                want = getattr(s, name)[rows]
                assert getattr(got, name).shape == want.shape
                assert getattr(got, name).tobytes() == want.tobytes()

    def test_matches_searchsorted(self):
        samples = make_samples(200, 1.0, lambda t: np.array([t, 0, 0]), const_fn([0, 0, 0.1]))
        listed = sample_list(samples)
        times = samples.t
        bounds = [t + d for t in (times[0], times[1], times[37], times[-2], times[-1])
                  for d in self.OFFSETS]
        checked = 0
        for t0 in bounds:
            for t1 in bounds:
                try:
                    want = segment_samples_bisect(listed, t0, t1)
                except PreintegrationError:
                    with pytest.raises(PreintegrationError):
                        segment_samples_searchsorted(listed, t0, t1)
                    with pytest.raises(PreintegrationError):
                        segment_samples(samples, t0, t1)
                    continue
                got = segment_samples(samples, t0, t1)
                self.assert_same_segment(got, stack_samples(want))
                self.assert_same_segment(
                    got, stack_samples(segment_samples_searchsorted(listed, t0, t1)))
                checked += 1
        assert checked > 300

    def test_snaps_to_raw_samples(self):
        samples = make_samples(200, 1.0, lambda t: np.array([t, 0, 0]), const_fn([0, 0, 0]))
        seg = segment_samples(samples, samples.t[10] + 0.5e-9, samples.t[51] - 0.5e-9)
        self.assert_same_segment(seg, samples[10:52])

    def test_merge_equals_reference_concatenation(self):
        # merge_deltas joins two segments' arrays without the junction row:
        # the concatenation of the two reference segments, junction once
        stream = build_scenario(ScenarioConfig(duration=2.0, seed=3)).imu
        listed = sample_list(stream)
        bias = TestBatchedTransitions.BIAS
        noise = TestBatchedTransitions.NOISE
        for ta, tb, tc in ((0.1, 0.3, 0.5), (0.2111, 0.43 + 0.4e-9, 0.7777), (1.0, 1.2, 1.2001)):
            d1 = integrate_segment(segment_samples(stream, ta, tb), bias, noise)
            d2 = integrate_segment(segment_samples(stream, tb, tc), BiasState(), noise)
            merged = merge_deltas(d1, d2)
            first = segment_samples_bisect(listed, ta, tb)
            joined = stack_samples(first + segment_samples_bisect(listed, tb, tc)[1:])
            self.assert_same_segment(merged.samples, joined)
            ref = integrate_segment(joined, bias, noise)
            assert merged.P.tobytes() == ref.P.tobytes()
            for name in ("J", "alpha", "beta", "gamma"):
                assert getattr(merged, name).tobytes() == getattr(ref, name).tobytes(), name
            assert merged.dt_total == ref.dt_total


def imu_residual(d, s, g):
    """Residual of the one factor d between rows 0 and 1 of s, by the
    batched kernel."""
    r, _ = imu_residuals_batch(StackedDeltas([d]), s.p, s.q, s.v, s.ba, s.bw, g)
    return r[0]


class TestImuResidual:
    g_w = np.array([0.0, 0.0, 9.81])

    def _states_and_delta(self):
        # constant world acceleration, identity attitude, gravity included
        a_w = np.array([0.4, -0.2, 0.1])
        T = 0.5
        accel = const_fn(a_w + self.g_w)
        gyro = const_fn([0, 0, 0])
        d = integrate_segment(make_samples(200, T, accel, gyro), BiasState(), NO_NOISE)
        p0, v0 = np.zeros(3), np.array([0.3, 0, -0.1])
        p1 = p0 + v0 * T + 0.5 * a_w * T**2
        v1 = v0 + a_w * T
        zeros = np.zeros((2, 3))
        s = FrameStates([0.0, T], [p0, p1], [geo.quat_identity()] * 2, [v0, v1], zeros, zeros)
        return d, s

    def test_zero_at_ground_truth(self):
        d, s = self._states_and_delta()
        r = imu_residual(d, s, self.g_w)
        assert np.linalg.norm(r) < 1e-9

    def test_position_perturbation_maps_to_alpha_block(self):
        d, s = self._states_and_delta()
        s.p = s.p + [[0, 0, 0], [0.1, 0, 0]]
        r = imu_residual(d, s, self.g_w)
        np.testing.assert_allclose(r[0:3], [0.1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(r[3:15], np.zeros(12), atol=1e-9)

    def test_bias_blocks_independent_of_poses(self):
        d, s = self._states_and_delta()
        rng = np.random.default_rng(5)
        s.ba = np.array([[0.01, 0.02, -0.01], [0.03, -0.01, 0.00]])
        s.bw = np.array([[0.001, -0.002, 0.001], [0.002, 0.001, -0.001]])
        for _ in range(5):
            s.p = rng.standard_normal((2, 3))
            r = imu_residual(d, s, self.g_w)
            np.testing.assert_allclose(r[9:12], s.ba[1] - s.ba[0], atol=1e-15)
            np.testing.assert_allclose(r[12:15], s.bw[1] - s.bw[0], atol=1e-15)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(11)
        g = self.g_w
        for _ in range(20):
            accel = const_fn(rng.normal(0, 1, 3) + [0, 0, 9.8])
            gyro = const_fn(rng.normal(0, 0.5, 3))
            d = integrate_segment(make_samples(100, 0.3, accel, gyro), BiasState(), NO_NOISE)
            rows = [(rng.standard_normal(3), rng.standard_normal(3),
                     geo.quat_normalize(rng.standard_normal(4)),
                     rng.normal(0, 0.01, 3), rng.normal(0, 0.005, 3)) for _ in range(2)]
            p, v, q, ba, bw = map(np.array, zip(*rows))
            s = FrameStates(np.zeros(2), p, q, v, ba, bw)
            st = StackedDeltas([d])
            _, aux = imu_residuals_batch(st, s.p, s.q, s.v, s.ba, s.bw, g)
            J = imu_jacobians_batch(st, aux)[0]
            Jk, Jk1 = J[:, :15], J[:, 15:]
            h = 1e-6
            for which, J in ((0, Jk), (1, Jk1)):
                fd = np.zeros((15, 15))
                for col in range(15):
                    dx = np.zeros(15)
                    dx[col] = h
                    rp = imu_residual(d, _retract_row(s, which, dx), g)
                    rm = imu_residual(d, _retract_row(s, which, -dx), g)
                    fd[:, col] = (rp - rm) / (2 * h)
                err = np.linalg.norm(fd - J) / max(np.linalg.norm(J), 1.0)
                assert err < 1e-4


def _retract_row(s, k, dx):
    """s with row k moved by the local step dx = (dp, dtheta, dv, dba, dbw)."""
    p, q, v, ba, bw = (a.copy() for a in (s.p, s.q, s.v, s.ba, s.bw))
    p[k] += dx[0:3]
    q[k] = geo.quat_mul(geo.small_angle_quat(dx[3:6]), q[k])
    v[k] += dx[6:9]
    ba[k] += dx[9:12]
    bw[k] += dx[12:15]
    return FrameStates(s.t, p, q, v, ba, bw)


def whitened(r, P):
    """r whitened by PreintegratedDelta.sqrt_information for covariance P."""
    d = PreintegratedDelta(BiasState(), NO_NOISE)
    d.P = P
    return d.sqrt_information() @ r


class TestWeightResidual:
    def test_identity_unchanged(self):
        r = np.arange(15.0)
        np.testing.assert_allclose(whitened(r, np.eye(15)), r, atol=1e-9)

    def test_scalar_scaling(self):
        r = np.ones(15)
        np.testing.assert_allclose(whitened(r, 4 * np.eye(15)), 0.5 * np.ones(15), atol=1e-9)

    def test_mahalanobis_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            A = rng.standard_normal((15, 15))
            P = A @ A.T + 0.5 * np.eye(15)
            r = rng.standard_normal(15)
            w = whitened(r, P)
            assert w @ w == pytest.approx(r @ np.linalg.solve(P, r), abs=1e-10)

    def test_sqrt_rejects_indefinite(self):
        P = -np.eye(3)
        with pytest.raises(PreintegrationError):
            covariance_sqrt(P)


class TestValidation:
    def test_noise_params_reject_negative(self):
        with pytest.raises(ValueError):
            NoiseParams(-0.1, 0.1, 0.1, 0.1)

    def test_bias_sanity_bounds(self):
        with pytest.raises(ValueError):
            BiasState(accel=[3.0, 0, 0])
        with pytest.raises(ValueError):
            BiasState(gyro=[0, 1.5, 0])

    def test_bias_bounds_decide_as_np_linalg_norm(self):
        # rows whose norms lie within a few ulps of each bound, one at a time
        # and stacked: BiasState.check accepts exactly those that
        # np.linalg.norm puts below the bound
        from monovio.preintegration import MAX_ACCEL_BIAS, MAX_GYRO_BIAS

        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = 1.0 + np.finfo(float).eps * rng.integers(-4, 5, 200)
        for bound, which in ((MAX_ACCEL_BIAS, 0), (MAX_GYRO_BIAS, 1)):
            rows = dirs * (bound * scale)[:, None]
            inside = np.linalg.norm(rows, axis=1) < bound
            assert inside.any() and not inside.all()
            def args(r):
                return (r, np.zeros_like(r)) if which == 0 else (np.zeros_like(r), r)

            for row, ok in zip(rows, inside):
                if ok:
                    BiasState.check(*args(row))
                else:
                    with pytest.raises(ValueError, match="exceeds sanity bound"):
                        BiasState.check(*args(row))
            BiasState.check(*args(rows[inside]))
            with pytest.raises(ValueError, match="exceeds sanity bound"):
                BiasState.check(*args(rows))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bias_must_be_finite(self, bad):
        row = np.array([0.1, bad, 0.0])
        for accel, gyro in ((row, np.zeros(3)), (np.zeros(3), row)):
            with pytest.raises(ValueError, match="bias must be finite"):
                BiasState.check(accel, gyro)


class TestFrameStates:
    def test_rows_are_shaped_copies_made_without_conversion(self, monkeypatch):
        s = FrameStates([0.0, 0.2, 0.4], np.arange(9.0).reshape(3, 3), [geo.quat_identity()] * 3,
                        np.ones((3, 3)), np.zeros((3, 3)), np.full((3, 3), 0.01))
        converted = []
        post_init = FrameStates.__post_init__
        monkeypatch.setattr(FrameStates, "__post_init__",
                            lambda self: converted.append(1) or post_init(self))
        rows = {0: s[:0], 1: s[-1:], 2: s[1:], 3: s[:2].append(s[2:])}
        assert converted == []
        for n, r in rows.items():
            assert len(r) == n
            for a, b, width in zip(r._arrays(), s._arrays(), (None, 3, 4, 3, 3, 3)):
                assert a.dtype == np.float64 and a.shape == ((n,) if width is None else (n, width))
                assert not np.shares_memory(a, b)
                assert np.array_equal(a, b[3 - n:] if n in (1, 2) else b[:n])
