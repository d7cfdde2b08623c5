"""Counter-based pseudo-random streams (SplitMix64 finalizer in counter mode).

Draw number ``n`` (1-based) of a stream with key ``k`` is
``mix64(k + GOLDEN * n) mod 2**64`` where ``mix64`` is the SplitMix64
finalizer.  Streams are therefore stateless up to an integer counter, which
makes them trivially reproducible and lets independent roles (outcome draws,
sub-forecaster sampling, tau-tree draws) advance without perturbing each
other.  Because draw ``n`` depends on nothing but ``(k, n)``, the
day-simulation kernel (`_kernel_py`) computes a batch of consecutive draws
at once, lane-packed in one big integer, and makes exactly the draws
`Stream.below` makes.

Identifier recorded in transcript headers: ``splitmix64-ctr/1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64 finalizer multipliers.
MIX_C1 = 0xBF58476D1CE4E5B9
MIX_C2 = 0x94D049BB133111EB

RNG_ID = "splitmix64-ctr/1"

# Stream roles; part of the reproducibility contract.
ROLE_OUTCOME = 1
ROLE_LEVEL = 2
ROLE_TAU = 3
ROLE_GENERIC = 4


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_C1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_C2) & MASK64
    return z ^ (z >> 31)


def draw_u64(key: int, index: int) -> int:
    """Value of draw `index` (1-based) of the stream with the given key."""
    return mix64((key + GOLDEN * index) & MASK64)


def seed_in_range(seed: int) -> int:
    """Return `seed`, or raise ConfigInvalid unless it is in [0, 2**64).

    stream_key reads a seed mod 2**64: two seeds 2**64 apart would draw the
    same days, and `run` would write them under different run ids.
    """
    if not 0 <= seed <= MASK64:
        raise ConfigInvalid(f"seed must be in [0, 2**64), got {seed}")
    return seed


def stream_key(seed: int, role: int, trial: int = 0) -> int:
    """Derive a stream key from (seed, role, trial); stages are order-sensitive."""
    k = mix64(seed & MASK64)
    k = mix64(k ^ mix64((role + GOLDEN) & MASK64))
    k = mix64(k ^ mix64((trial + GOLDEN) & MASK64))
    return k


@dataclass
class Stream:
    """A single consumable stream: (key, number of draws consumed so far)."""

    key: int
    counter: int = 0

    def next_u64(self) -> int:
        self.counter += 1
        return draw_u64(self.key, self.counter)

    def below(self, n: int) -> int:
        """Exactly uniform integer in [0, n) via rejection sampling.

        Uses as many 64-bit draws per attempt as n requires, so for
        n < 2**64 each attempt is one draw.
        """
        if n < 1:
            raise ValueError(f"below() requires n >= 1, got {n}")
        words = max(1, (n.bit_length() + 63) // 64)
        space = 1 << (64 * words)
        threshold = (space - n) % n
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.next_u64()
            if r >= threshold:
                return r % n


def derive_stream(seed: int, role: int, trial: int = 0) -> Stream:
    return Stream(stream_key(seed, role, trial))
