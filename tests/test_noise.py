import numpy as np
import pytest

from kljnsync.errors import ConfigError, DegenerateInputError
from kljnsync.noise import (
    _fast_length,
    _synthesize,
    autocorrelation_standard_error,
    derive_seed,
    empirical_autocorrelation,
    generate_with_guard,
    theoretical_autocorrelation,
)

B = 1.0e4
S0 = 1.0e-6


def test_zero_duration_gives_empty_trace():
    tr = generate_with_guard(B, S0, 0, 0.0, 2e5)
    assert len(tr) == 0


def test_sample_count_is_floor_of_duration_times_rate():
    tr = generate_with_guard(B, S0, 0, 0.0100049, 1e5)
    assert len(tr) == 1000


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        generate_with_guard(B, S0, 0, 1.0, 1.9 * B)
    with pytest.raises(ConfigError):
        generate_with_guard(B, S0, 0, -1.0, 20 * B)
    with pytest.raises(ConfigError):
        generate_with_guard(-1.0, S0, 0, 1.0, 20 * B)
    with pytest.raises(ConfigError):
        generate_with_guard(B, -1e-9, 0, 1.0, 20 * B)


def test_determinism_bit_identical():
    a = generate_with_guard(B, S0, 42, 0.5, 2e5)
    b = generate_with_guard(B, S0, 42, 0.5, 2e5)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)


def test_variance_matches_flat_spectrum_power():
    # Total power of a flat one-sided density S0 over [0, B] is S0*B.
    tr = generate_with_guard(B, S0, 1, 10.0, 1e5)
    target = S0 * B
    assert abs(np.mean(tr**2) - target) / target < 0.03


def test_distinct_seeds_uncorrelated():
    a = generate_with_guard(B, S0, 1, 10.0, 1e5)
    b = generate_with_guard(B, S0, 2, 10.0, 1e5)
    r = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
    # A record of length T holds about 2*B*T independent values.
    n_eff = 2.0 * B * 10.0
    assert abs(r) < 4.0 / np.sqrt(n_eff)


def test_autocorrelation_of_constant_trace():
    ac = empirical_autocorrelation(np.full(500, 3.0), 1e3, 10)
    assert np.allclose(ac[:, 1], 9.0, rtol=1e-10)


def test_autocorrelation_lag0_is_mean_square():
    tr = generate_with_guard(B, S0, 5, 0.1, 2e5)
    ac = empirical_autocorrelation(tr, 2e5, 3)
    assert ac[0, 0] == 0.0
    assert ac[1, 0] == 1 / 2e5
    assert np.isclose(ac[0, 1], np.mean(tr**2), rtol=1e-10)


def test_autocorrelation_guards():
    with pytest.raises(DegenerateInputError):
        empirical_autocorrelation(np.zeros(0), 1e3, 0)
    with pytest.raises(ConfigError):
        empirical_autocorrelation(np.ones(4), 1e3, 4)


def test_autocorrelation_time_reversal_symmetry():
    tr = generate_with_guard(B, S0, 9, 0.05, 2e5)
    a = empirical_autocorrelation(tr, 2e5, 40)
    b = empirical_autocorrelation(tr[::-1].copy(), 2e5, 40)
    assert np.allclose(a[:, 1], b[:, 1], rtol=1e-9)


def test_empirical_matches_sinc_at_reference_lags():
    # fs = 20B puts the lags 1/(4B), 1/(2B), 1/B at 5, 10, 20 samples.
    fs = 20 * B
    tr = generate_with_guard(B, S0, 7, 4.0, fs)
    ac = empirical_autocorrelation(tr, fs, 20)
    se = autocorrelation_standard_error(B, S0, len(tr), fs)
    for m in (0, 5, 10, 20):
        theory = theoretical_autocorrelation(B, S0, ac[m, 0])
        assert abs(ac[m, 1] - theory) < 5.0 * se


def test_first_sinc_zero_at_half_inverse_bandwidth():
    fs = 20 * B
    tr = generate_with_guard(B, S0, 11, 10.0, fs)
    ac = empirical_autocorrelation(tr, fs, 10)
    n_eff = len(tr) * B / fs
    tol = 4.0 * (S0 * B) / np.sqrt(n_eff)
    assert abs(ac[10, 1]) < tol  # lag 10 samples = 1/(2B)


def test_theoretical_autocorrelation_values():
    assert theoretical_autocorrelation(B, S0, 0.0) == B * S0
    for k in (1, 2, 3, 7):
        assert theoretical_autocorrelation(B, 1.0, k / (2 * B)) == 0.0
    got = theoretical_autocorrelation(B, 1.0, 25e-6)
    assert np.isclose(got, 2e4 / np.pi, rtol=1e-12)
    with pytest.raises(ConfigError):
        theoretical_autocorrelation(0.0, 1.0, 0.0)


def test_theoretical_autocorrelation_array_input():
    taus = np.array([0.0, 25e-6, 50e-6])
    vals = theoretical_autocorrelation(B, 1.0, taus)
    assert vals.shape == (3,)
    assert vals[0] == B and vals[2] == 0.0


def averaged_periodogram(trace: np.ndarray, fs: float, n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided PSD estimate by averaging rectangular-window periodograms
    of n_segments non-overlapping segments. Returns (frequencies, psd)."""
    n = len(trace)
    if n == 0:
        raise DegenerateInputError("periodogram of an empty trace")
    seg_len = n // n_segments
    if seg_len < 2:
        raise ConfigError("n_segments: leaves segments shorter than 2 samples")
    acc = np.zeros(seg_len // 2 + 1)
    for i in range(n_segments):
        seg = trace[i * seg_len : (i + 1) * seg_len]
        spectrum = np.fft.rfft(seg)
        psd = (np.abs(spectrum) ** 2) / (fs * seg_len)
        psd[1:] *= 2.0  # fold negative frequencies; DC (and Nyquist) once
        if seg_len % 2 == 0:
            psd[-1] /= 2.0
        acc += psd
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / fs)
    return freqs, acc / n_segments


def test_spectral_flatness():
    tr = generate_with_guard(B, S0, 3, 10.0, 2e5)
    freqs, psd = averaged_periodogram(tr, 2e5, 200)
    band = (freqs >= 0.1 * B) & (freqs <= 0.9 * B)
    assert abs(np.mean(psd[band]) - S0) / S0 < 0.10
    stop = freqs > 1.2 * B
    assert np.mean(psd[stop]) < 1e-3 * S0


def test_zero_density_gives_zero_trace():
    tr = generate_with_guard(B, 0.0, 0, 0.01, 2e5)
    assert np.all(tr == 0.0)


def test_guard_generation_trims_to_requested_length():
    tr = generate_with_guard(B, S0, 4, 0.01, 2e5)
    assert len(tr) == 2000
    # the guarded trace is the interior of a padded one at least 1/B = 20
    # samples longer at each end, at the next 5-smooth length: 2040 -> 2048
    cut, padded_n = 20, _fast_length(2000 + 2 * 20)
    assert padded_n == 2048
    padded = _synthesize(B, S0, 4, padded_n, 2e5)
    assert np.array_equal(tr, padded[cut : cut + 2000])
    assert padded_n - (cut + 2000) >= cut


@pytest.mark.parametrize(
    "n, fs, kept",
    [
        (2000, 20 * B, 101),  # even n, Nyquist bin above B
        (2001, 20 * B, 101),  # odd n
        (64, 2 * B, 33),  # B = fs/2: every bin, the Nyquist bin included
        (65, 2 * B, 33),
        (66, 2 * B, 33),  # float edge: rfftfreq puts the Nyquist bin a ulp above B
        (118, 2 * B, 59),
    ],
)
def test_synthesis_fills_exactly_the_bins_at_or_below_B(n, fs, kept):
    keep = np.fft.rfftfreq(n, d=1.0 / fs) <= B
    assert np.count_nonzero(keep) == kept
    tr = _synthesize(B, S0, n, n, fs)
    spectrum = np.abs(np.fft.rfft(tr))
    top = spectrum.max()
    assert np.all(spectrum[~keep] <= 1e-12 * top)
    assert np.all(spectrum[keep] > 1e-9 * top)


@pytest.mark.parametrize("n, fs", [(200, 20 * B), (201, 20 * B), (64, 2 * B)])
def test_mean_square_over_seeds_is_the_flat_spectrum_power(n, fs):
    msq = np.array([
        np.mean(_synthesize(B, S0, s, n, fs) ** 2)
        for s in range(2000)
    ])
    se = msq.std(ddof=1) / np.sqrt(msq.size)
    assert abs(msq.mean() - S0 * B) < 3.0 * se


def test_fast_length_is_the_next_5_smooth_number():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want, m = [], 1
    for n in range(1, 5000):
        while not smooth(m) or m < n:
            m += 1
        want.append(m)
    assert [_fast_length(n) for n in range(1, 5000)] == want


def test_derive_seed_is_the_seed_sequence_state_cold_and_warm():
    masters = [0, 1, 5, 2**31 - 1, 2**63 + 7]
    paths = [(), (0,), (1,), (0xFEED,), (2, 7), (0xE5E, 3, 1)]
    want = {
        (m, p): int(np.random.SeedSequence(m, spawn_key=p).generate_state(1, np.uint64)[0])
        for m in masters
        for p in paths
    }
    assert {(m, p): derive_seed(m, *p) for m, p in want} == want
    assert {(m, p): derive_seed(m, *p) for m, p in want} == want


def test_a_float_master_raises_after_its_integer_is_memoised():
    derive_seed(5, 1)
    with pytest.raises(TypeError):
        derive_seed(5.0, 1)
