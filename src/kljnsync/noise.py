"""Bandlimited Gaussian noise synthesis and second-order statistics.

The wire channel carries Gaussian noise that is white up to a sharp
high-frequency cutoff B. Everything downstream (mean-square levels, the
alignment search, the resolution argument for clock synchronization) rests
on the autocorrelation of that process,

    R(tau) = B * S0 * sin(2*pi*B*tau) / (2*pi*B*tau),

which is flat-topped near tau = 0 and has its first zero at tau = 1/(2B).

A trace is a float64 array of samples, volts or amperes; its sample rate
and spectrum are the caller's, passed alongside where they are needed.

Synthesis works in the frequency domain. A trace of n samples draws only
its rfft bins at or below B, each distributed as the rfft of unit white
noise is there, and takes one inverse FFT: the same process as white noise
brick-wall filtered at B, for about B/fs of the random draws and without a
forward FFT. Such a trace is circular, so the generator returns the
interior of a longer one instead, padded by at least 1/B at each end and
rounded up to a length with no prime factor above 5, where the inverse FFT
is fast.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, DegenerateInputError


def derive_seed(master: int, *path: int) -> int:
    """Derive an independent 64-bit child seed from a master seed.

    Every random draw in the simulator takes its seed from some
    (master, path) pair, so distinct purposes get decorrelated streams and
    the whole run stays reproducible from one integer.
    """
    seq = np.random.SeedSequence(master, spawn_key=tuple(path))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def generate_with_guard(
    bandwidth_B: float, density_S0: float, seed: int, duration: float, sample_rate: float
) -> np.ndarray:
    """Synthesize Gaussian noise with a flat one-sided spectrum over [0, B].

    The noise is white noise brick-wall filtered at B: only the rfft bins
    at or below B get random values, each with the distribution the rfft
    of unit white noise has there, and one inverse FFT turns them into
    samples. It is rescaled so the expected variance is exactly S0 * B.
    The hard spectral edge is deliberate: smoother filters would move the
    zeros of the sinc autocorrelation that the synchronization analysis
    relies on.

    One inverse FFT gives a circular trace, whose end wraps onto its
    start. The trace returned is the interior of a longer circular one, so
    the wraparound never touches the samples handed to the protocols: the
    padded trace is at least 1/B (cut = round(sample_rate / B) samples)
    longer at each end, its length rounded up to the next 2^a * 3^b * 5^c,
    where the inverse FFT is fast, and the trace is samples [cut, cut + n)
    of it.

    Deterministic for fixed arguments; the stream is PCG64 seeded with seed.

    Parameters
    ----------
    bandwidth_B : float
        Cutoff in Hz, > 0.
    density_S0 : float
        One-sided spectral density over [0, B], >= 0.
    seed : int
    duration : float
        Record length in seconds; the trace has n = floor(duration *
        sample_rate) samples.
    sample_rate : float
        In Hz; must satisfy sample_rate >= 2 * bandwidth_B.

    Returns
    -------
    np.ndarray
        The generator voltage, float64.
    """
    n = _sample_count(bandwidth_B, density_S0, duration, sample_rate)
    cut = int(round(sample_rate / bandwidth_B))
    padded = _synthesize(bandwidth_B, density_S0, seed, _fast_length(n + 2 * cut), sample_rate)
    return padded[cut : cut + n].copy()


def _sample_count(bandwidth_B: float, density_S0: float, duration: float, sample_rate: float) -> int:
    """floor(duration * sample_rate), once the arguments are checked."""
    problems = []
    if bandwidth_B <= 0:
        problems.append("bandwidth_B: must be > 0")
    if density_S0 < 0:
        problems.append("density_S0: must be >= 0")
    if duration < 0:
        problems.append("duration: must be >= 0")
    if sample_rate < 2.0 * bandwidth_B:
        problems.append(f"sample_rate: {sample_rate} Hz is below Nyquist 2B = {2.0 * bandwidth_B} Hz")
    if problems:
        raise ConfigError(problems)
    return int(np.floor(duration * sample_rate))


def _synthesize(bandwidth_B: float, density_S0: float, seed: int, n: int, sample_rate: float) -> np.ndarray:
    """n samples of circular noise with a flat spectrum over [0, B]."""
    if n == 0 or density_S0 == 0.0:
        return np.zeros(n)
    kept = _kept_bins(n, sample_rate, bandwidth_B)
    # real bins: DC and, for even n, the Nyquist bin when it is kept
    real = [0, n // 2] if n % 2 == 0 and kept == n // 2 + 1 else [0]

    # Parseval weights: real bins count once, interior bins twice, so
    # expected_power is E[sum(y^2)] for masked unit-variance white input;
    # scaling by it makes E[var] = S0*B exact.
    expected_power = 2.0 * kept - len(real)
    scale = np.sqrt(density_S0 * bandwidth_B * n / expected_power)

    # the rfft of n unit white samples: interior bins sqrt(n/2)*(z + iz'),
    # real bins sqrt(n)*z
    z = np.random.default_rng(seed).standard_normal((2, kept))
    bins = (z[0] + 1j * z[1]) * (scale * np.sqrt(n / 2.0))
    bins[real] = z[0, real] * (scale * np.sqrt(n))
    return np.fft.irfft(bins, n=n)


@functools.lru_cache(maxsize=64)
def _kept_bins(n: int, sample_rate: float, bandwidth_B: float) -> int:
    """How many rfft bins of n samples lie at or below B; one count per shape."""
    return int(np.count_nonzero(np.fft.rfftfreq(n, d=1.0 / sample_rate) <= bandwidth_B))


@functools.lru_cache(maxsize=64)
def _fast_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, a length the FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    five = 1
    while five < best:  # five runs over 5^c, odd over 3^b * 5^c
        odd = five
        while odd < best:
            # the smallest power-of-two multiple of odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def empirical_autocorrelation(samples: np.ndarray, sample_rate: float, max_lag: int) -> np.ndarray:
    """Biased autocorrelation estimate of a trace sampled at sample_rate Hz.

    Returns an array of shape (max_lag + 1, 2) whose rows are
    (lag in seconds, value in squared trace units), with

        value[m] = (1/N) * sum_n x[n] * x[(n + m) mod N].

    The 1/N normalization with circular indexing keeps the estimate positive
    semidefinite and symmetric under time reversal, and makes lag 0 equal
    the trace mean square. It is exact (no edge bias) only on a circular
    trace. The generator's traces are the interior of a circular one, not
    circular themselves, so on them it is exact only to O(m/N), the order
    to which it agrees with the linear biased estimator for m much smaller
    than N.
    """
    n = len(samples)
    if n == 0:
        raise DegenerateInputError("autocorrelation of an empty trace")
    if max_lag >= n:
        raise ConfigError(f"max_lag: {max_lag} must be < trace length {n}")
    spectrum = np.fft.rfft(samples)
    values = np.fft.irfft(np.abs(spectrum) ** 2, n=n)[: max_lag + 1] / n
    lags = np.arange(max_lag + 1) / sample_rate
    return np.column_stack([lags, values])


def theoretical_autocorrelation(B: float, S0: float, tau) -> np.ndarray | float:
    """R(tau) = B * S0 * sin(2*pi*B*tau) / (2*pi*B*tau), with R(0) = B * S0.

    Accepts scalar or array tau.
    """
    if B <= 0:
        raise ConfigError("B: must be > 0")
    # np.sinc(x) = sin(pi x)/(pi x), so sinc(2*B*tau) is the wanted kernel.
    x = 2.0 * B * np.asarray(tau, dtype=np.float64)
    out = B * S0 * np.sinc(x)
    # The kernel's zeros sit at nonzero integer x, but sin(pi*k) evaluates to
    # ~1e-16 and input rounding can leave x a ulp off the integer; pin them.
    nearest = np.round(x)
    at_zero = (nearest != 0.0) & (np.abs(x - nearest) <= 4.0 * np.finfo(float).eps * np.abs(nearest))
    out = np.where(at_zero, 0.0, out)
    if np.isscalar(tau):
        return float(out)
    return out


def autocorrelation_standard_error(
    bandwidth_B: float, density_S0: float, n_samples: int, sample_rate: float
) -> float:
    """Sampling std of the lag-0 autocorrelation estimate.

    For the rectangular spectrum the estimator variance at lag 0 is
    (S0*B)^2 / (B*T) with T the record length; at other lags it is at most
    that, so this value is a safe one-size band for all small lags.
    """
    effective = n_samples * bandwidth_B / sample_rate
    return density_S0 * bandwidth_B / np.sqrt(effective)
