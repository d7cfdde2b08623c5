import pytest
from hypothesis import HealthCheck, settings

from hicalib.engine import simulate
from hicalib.rng import Stream, stream_key
from hicalib.simplex import RationalDist, make_rational_dist

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def fixed_stream(tag: int) -> Stream:
    """Deterministic stream for test-local randomness."""
    return Stream(stream_key(0xC0FFEE, 4, tag))


def random_dist(stream: Stream, d: int, max_unit: int = 9, full_support: bool = False) -> RationalDist:
    lo = 1 if full_support else 0
    units = [lo + stream.below(max_unit) for _ in range(d)]
    if not any(units):
        units[stream.below(d)] = 1
    return make_rational_dist(units, sum(units))


def simulate_recorded(cfg, adversary, seed, **kwargs):
    """`simulate` with a recording `on_day` sink: (run, outcomes, levels).

    `levels` lists each day's realized level index, or is None in
    distributional mode, as `reference.expand_to_transcript` takes them.
    """
    outcomes, levels = [], []

    def on_day(t_first, out_seg, lv_seg, law):
        outcomes.extend(out_seg)
        if lv_seg is not None:
            levels.extend(lv_seg)

    run = simulate(cfg, adversary, seed, on_day=on_day, **kwargs)
    return run, outcomes, levels if run.mode == "sampled" else None


@pytest.fixture
def stream():
    return fixed_stream(1)
