"""Property tests of the suite schemas: every drawn command either runs (exit 0
or 1) or is refused with exit 2; none crashes with exit 3."""

import contextlib
import io
import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from modlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main

# each key draws from the values the schema accepts half of the time, so that
# whole commands are accepted often and each key is refused often
SEEDS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(-2 ** 64, 2 ** 64))
SCALES = st.one_of(st.floats(1e-3, 1e3),
                   st.one_of(st.sampled_from([1e-300, 0.0, -0.0, -1.0, math.nan, math.inf,
                                              -math.inf]),
                             st.floats(allow_nan=True, allow_infinity=True)))
SETTINGS = dict(deadline=None, derandomize=True, database=None)


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def common_ok(seed, scale):
    return 0 <= seed < 2 ** 63 and math.isfinite(scale) and scale > 0


@settings(max_examples=30, **SETTINGS)
@given(trials=st.one_of(st.integers(1, 60), st.integers(-3, 60)), seed=SEEDS, scale=SCALES)
def test_findim_suite_runs_or_refuses(trials, seed, scale):
    code = exit_code(["findim", "suite", f"trials={trials}", f"--seed={seed}",
                      f"--tolerance_scale={scale!r}"])
    accepted = 1 <= trials <= 10 ** 6 and common_ok(seed, scale)
    event(f"accepted={accepted}")
    assert code in ((EXIT_OK, EXIT_TOLERANCE) if accepted else (EXIT_CONFIG,))


@settings(max_examples=20, **SETTINGS)
@given(cutoff=st.one_of(st.integers(7, 20), st.integers(0, 24)),
       modes=st.one_of(st.just(2), st.integers(-1, 4)), seed=SEEDS, scale=SCALES)
def test_fock_suite_runs_or_refuses(cutoff, modes, seed, scale):
    code = exit_code(["fock", "suite", f"cutoff={cutoff}", f"modes={modes}",
                      f"--seed={seed}", f"--tolerance_scale={scale!r}"])
    accepted = modes == 2 and 7 <= cutoff <= 20 and common_ok(seed, scale)
    event(f"accepted={accepted}")
    assert code in ((EXIT_OK, EXIT_TOLERANCE) if accepted else (EXIT_CONFIG,))
