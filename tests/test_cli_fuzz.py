"""Property tests of the CLI schemas: every drawn command either runs (exit 0
or 1, with finite printed values) or is refused with exit 2; none crashes
with exit 3."""

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


def printed_value(argv):
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def exit_code(argv):
    return printed_value(argv)[0]


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


# finite floats across the whole range, and the non-finite ones
ANY_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))


@settings(max_examples=30, **SETTINGS)
@given(s=st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e308), ANY_FLOAT))
def test_cutoff_limit_prints_a_finite_value_or_refuses(s):
    code, out = printed_value(["cutoff", "limit", f"s={s!r}"])
    accepted = math.isfinite(s) and s > 1.0
    event(f"accepted={accepted}")
    if accepted:
        assert code == EXIT_OK and math.isfinite(float(out))
    else:
        assert code == EXIT_CONFIG and out == ""


FLOW_KEYS = {"r": (st.floats(0.1, 10.0), ANY_FLOAT),
             "s": (st.floats(-700.0, 700.0), ANY_FLOAT),
             "point": (st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
                       st.lists(ANY_FLOAT, max_size=4))}


@settings(max_examples=30, **SETTINGS)
@given(geometry=st.sampled_from(["wedge", "cone"]),
       broken=st.sampled_from([None, *FLOW_KEYS]), data=st.data())
def test_scalar_flow_prints_finite_values_or_refuses(geometry, broken, data):
    # every key in its schema, or one key drawn from anything
    values = {key: data.draw(fuzz if key == broken else good, label=key)
              for key, (good, fuzz) in FLOW_KEYS.items()}
    r, s, point = values["r"], values["s"], values["point"]
    code, out = printed_value(["scalar", "flow", f"geometry={geometry}", f"r={r!r}",
                               f"s={s!r}", "point=" + ",".join(repr(x) for x in point)])
    in_schema = (math.isfinite(r) and r > 0 and math.isfinite(s) and abs(s) <= 700
                 and len(point) >= 2 and all(math.isfinite(x) for x in point))
    event(f"in_schema={in_schema} exit={code}")
    # in the schema, a point the flow takes out of its domain or beyond double
    # precision is refused too; whatever runs prints only finite numbers
    assert code in ((EXIT_OK, EXIT_CONFIG) if in_schema else (EXIT_CONFIG,))
    if code == EXIT_OK:
        mapped, factor = out.split("->")[1].split("factor")
        assert all(math.isfinite(float(v)) for v in mapped.strip(" []").split(","))
        assert math.isfinite(float(factor))
    else:
        assert out == ""
