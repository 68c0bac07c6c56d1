"""Clock synchronization for a resistor-noise key exchange line.

A deterministic simulator and protocol library: bandlimited Gaussian noise
on a two-party resistor loop, per-party clocks over a delayed message
channel, one-time-pad authenticated transfers, three synchronization
protocols of increasing robustness, and injectable adversaries to verify
which attacks each protocol detects.
"""

__version__ = "0.1.0"
