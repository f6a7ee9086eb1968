import numpy as np
import pytest

from monovio import geometry as geo
from monovio.preintegration import (
    BiasState,
    FrameStates,
    ImuSample,
    NoiseParams,
    PreintegratedDelta,
    PreintegrationError,
    StackedDeltas,
    covariance_sqrt,
    imu_jacobians_batch,
    imu_residuals_batch,
    integrate_segment,
    interpolate_sample,
    merge_deltas,
    segment_samples,
)
from monovio.simulator import ScenarioConfig, build_scenario
from reference import (
    integrate_segment_stepwise,
    merge_deltas_reintegrated,
    segment_samples_searchsorted,
)

NO_NOISE = NoiseParams(0.0, 0.0, 0.0, 0.0)


def make_samples(rate, duration, accel_fn, gyro_fn):
    n = int(round(rate * duration))
    ts = np.arange(n + 1) / rate
    return [ImuSample(t, accel_fn(t), gyro_fn(t)) for t in ts]


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
        s0 = ImuSample(0.0, np.zeros(3), np.zeros(3))
        s1 = ImuSample(-0.01, np.zeros(3), np.zeros(3))
        with pytest.raises(PreintegrationError):
            integrate_segment([s0, s1], BiasState(), NO_NOISE)

    def test_rejects_gap(self):
        s0 = ImuSample(0.0, np.zeros(3), np.zeros(3))
        s1 = ImuSample(0.2, np.zeros(3), np.zeros(3))
        with pytest.raises(PreintegrationError):
            integrate_segment([s0, s1], BiasState(), NO_NOISE)

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
        samples = [ImuSample(0.0, rng.normal(0, 1, 3), rng.normal(0, 0.5, 3))]
        for k in range(1, 151):
            samples.append(ImuSample(0.005 * k, rng.normal(0, 1, 3), rng.normal(0, 0.5, 3)))
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

        ref = integrate_segment(
            [ImuSample(t, a, w) for t, a, w in zip(ts, accel_clean, gyro_clean)],
            BiasState(),
            noise,
        )

        runs = 1500
        errs = np.zeros((runs, 9))
        sa = sigma_a / np.sqrt(dt)
        sw = sigma_w / np.sqrt(dt)
        for k in range(runs):
            na = rng.normal(0, sa, (n + 1, 3))
            nw = rng.normal(0, sw, (n + 1, 3))
            samples = [
                ImuSample(t, a + ea, w + ew)
                for t, a, w, ea, ew in zip(ts, accel_clean, gyro_clean, na, nw)
            ]
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
        assert seg[0].t == pytest.approx(0.123)
        assert seg[-1].t == pytest.approx(0.456)
        np.testing.assert_allclose(seg[0].accel, [0.123, 0, 0], atol=1e-12)
        # interior samples are the raw stream
        assert seg[1].t == pytest.approx(0.13)

    def test_interpolate_sample(self):
        s0 = ImuSample(0.0, [0, 0, 0], [0, 0, 0])
        s1 = ImuSample(0.01, [1, 2, 3], [4, 5, 6])
        m = interpolate_sample(s0, s1, 0.005)
        np.testing.assert_allclose(m.accel, [0.5, 1.0, 1.5])
        np.testing.assert_allclose(m.gyro, [2.0, 2.5, 3.0])


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
        # merge_deltas continues the first delta's recursion; it must equal
        # re-integrating the concatenated buffer, whatever the split
        for start, n2 in ((0, 2), (57, 41), (230, 81)):
            d1 = integrate_segment(stream[start : start + n], self.BIAS, self.NOISE)
            tail = stream[start + n - 1 : start + n - 1 + n2]
            d2 = integrate_segment(tail, BiasState(), self.NOISE)
            merged = merge_deltas(d1, d2)
            ref = merge_deltas_reintegrated(d1, d2)
            for name in ("P", "J", "alpha", "beta", "gamma"):
                assert np.array_equal(getattr(merged, name), getattr(ref, name)), name
            assert merged.P.tobytes() == ref.P.tobytes()  # signed zeros too
            assert merged.dt_total == ref.dt_total and len(merged.samples) == len(ref.samples)


class TestSegmentBoundaries:
    """segment_samples finds its boundaries by bisection; the segments must
    be the ones the whole-stream searchsorted gave, snapping included."""

    def test_matches_searchsorted(self):
        samples = make_samples(200, 1.0, lambda t: np.array([t, 0, 0]), const_fn([0, 0, 0.1]))
        times = [s.t for s in samples]
        raw = {id(s) for s in samples}
        # +-1e-9 exactly: t0 + 1e-9 (t1 - 1e-9) lands on a sample time, where
        # the right and left sides of the search differ
        offsets = [0.0, 0.4e-9, -0.4e-9, 1e-9, -1e-9, 0.99e-9, -0.99e-9, 1.01e-9, -1.01e-9,
                   3e-9, 0.0025]
        bounds = [t + d for t in (times[0], times[1], times[37], times[-2], times[-1])
                  for d in offsets]
        checked = 0
        for t0 in bounds:
            for t1 in bounds:
                try:
                    want = segment_samples_searchsorted(samples, t0, t1)
                except PreintegrationError:
                    with pytest.raises(PreintegrationError):
                        segment_samples(samples, t0, t1)
                    continue
                got = segment_samples(samples, t0, t1)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.t == w.t
                    assert np.array_equal(g.accel, w.accel)
                    assert np.array_equal(g.gyro, w.gyro)
                # snapped and interior samples are the stream's own objects
                assert [id(g) in raw for g in got] == [id(w) in raw for w in want]
                checked += 1
        assert checked > 300

    def test_snaps_to_raw_samples(self):
        samples = make_samples(200, 1.0, lambda t: np.array([t, 0, 0]), const_fn([0, 0, 0]))
        seg = segment_samples(samples, samples[10].t + 0.5e-9, samples[51].t - 0.5e-9)
        assert seg[0] is samples[10] and seg[-1] is samples[51]
        assert len(seg) == 42


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
