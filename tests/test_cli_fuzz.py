"""Property tests of the CLI schemas: every drawn command either runs (exit 0
or 1, with finite printed values) or is refused with exit 2; none crashes
with exit 3."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from modlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main
from modlab.cutoff import MAX_SHARPNESS

# each key draws from the values the schema accepts half of the time, so that
# whole commands are accepted often and each key is refused often
SEEDS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(-2 ** 64, 2 ** 64))
SETTINGS = dict(deadline=None, derandomize=True, database=None)


def printed_value(argv):
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def exit_code(argv):
    return printed_value(argv)[0]


def seed_ok(seed):
    return 0 <= seed < 2 ** 63


@settings(max_examples=30, **SETTINGS)
@given(trials=st.one_of(st.integers(1, 60), st.integers(-3, 60)), seed=SEEDS)
def test_findim_suite_runs_or_refuses(trials, seed):
    code = exit_code(["findim", "suite", f"trials={trials}", f"--seed={seed}"])
    accepted = 1 <= trials <= 10 ** 6 and seed_ok(seed)
    event(f"accepted={accepted}")
    assert code in ((EXIT_OK, EXIT_TOLERANCE) if accepted else (EXIT_CONFIG,))


@settings(max_examples=20, **SETTINGS)
@given(cutoff=st.one_of(st.integers(11, 20), st.integers(0, 24)), seed=SEEDS)
def test_fock_suite_runs_or_refuses(cutoff, seed):
    code = exit_code(["fock", "suite", f"cutoff={cutoff}", f"--seed={seed}"])
    accepted = 11 <= cutoff <= 20 and seed_ok(seed)
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


def threshold(s):
    """s/(s-1), the smallest t that eta_{s,t} accepts; 3 where s is refused."""
    return s / (s - 1.0) if 1.0 < s <= MAX_SHARPNESS else 3.0


def transition_ok(s, t):
    return 1.0 < s <= MAX_SHARPNESS and s / (s - 1.0) <= t < math.inf


# scalar bound: the collar (epsilon in [1e-100, 1e100], and 1e-6 r <= epsilon
# < r/2 on the cone), the transition (t >= s/(s-1)), the massless cone and the
# side are checked only where the bound is computed; epsilon and t are drawn as
# multiples of r/2 and s/(s-1), inside the rule, or around its edges and
# anywhere when the key is broken
BOUND_KEYS = {"s": (st.floats(1.01, 3.0), ANY_FLOAT),
              "t_ratio": (st.floats(1.0, 2.0), st.one_of(st.floats(0.5, 1.0), ANY_FLOAT)),
              "eps_ratio": (st.floats(0.01, 0.99), st.one_of(st.floats(0.9, 1.1),
                                                             st.floats(1e-6, 4e-6), ANY_FLOAT)),
              "mass": (st.just(0.0), st.sampled_from([0.5, 1.0])),
              "side": (st.sampled_from(["upper", "lower"]),
                       st.sampled_from(["sideways", "UPPER", ""]))}


@settings(max_examples=30, **SETTINGS)
@given(geometry=st.sampled_from(["wedge", "cone"]), d=st.sampled_from([1, 2]),
       r=st.sampled_from([0.5, 1.0, 2.0]), broken=st.sampled_from([None, *BOUND_KEYS]),
       data=st.data())
def test_scalar_bound_prints_a_finite_value_or_refuses(geometry, d, r, broken, data):
    values = {key: data.draw(fuzz if key == broken else good, label=key)
              for key, (good, fuzz) in BOUND_KEYS.items()}
    s, mass, side = values["s"], values["mass"], values["side"]
    t, epsilon = values["t_ratio"] * threshold(s), values["eps_ratio"] * r / 2.0
    code, out = printed_value(["scalar", "bound", f"geometry={geometry}",
                               f"d={3 if geometry == 'cone' else d}", f"mass={mass!r}",
                               f"r={r!r}", f"s={s!r}", f"t={t!r}", f"epsilon={epsilon!r}",
                               f"side={side}"])
    accepted = (side in ("upper", "lower") and transition_ok(s, t) and 1e-100 <= epsilon <= 1e100
                and (geometry == "wedge" or (1e-6 * r <= epsilon < r / 2.0 and mass == 0.0)))
    event(f"accepted={accepted}")
    if accepted:
        assert code == EXIT_OK and math.isfinite(float(out))
    else:
        assert code == EXIT_CONFIG and out == ""


def around_square(n):
    """Dimensions near n^2, small ones anywhere, and ones whose products pass
    the 4096 cap (refused before anything is built)."""
    square = max(n, 0) ** 2
    return st.one_of(st.integers(-2, 2).map(lambda k: square + k), st.integers(-1, 20),
                     st.integers(1025, 10 ** 6))


@settings(max_examples=30, **SETTINGS)
@given(n=st.integers(-1, 4), data=st.data())
def test_signalling_check_prints_a_finite_value_or_refuses(n, data):
    d1, d2 = data.draw(around_square(n), label="d1"), data.draw(around_square(n), label="d2")
    code, out = printed_value(["signalling", "check", f"n={n}", f"d1={d1}", f"d2={d2}"])
    accepted = n >= 1 and min(d1, d2) >= max(4, n * n) and d1 * d2 <= 4096
    event(f"accepted={accepted}")
    if accepted:
        assert code in (EXIT_OK, EXIT_TOLERANCE)
        assert math.isfinite(float(out.removeprefix("max commutator")))
    else:
        assert code == EXIT_CONFIG and out == ""


@settings(max_examples=30, **SETTINGS)
@given(n=st.integers(-1, 4), data=st.data())
def test_signalling_factorize_prints_a_finite_value_or_refuses(n, data):
    small = st.integers(-2, 2).map(lambda k: max(n, 0) ** 2 + k) | st.integers(-1, 20)
    outer, middle = data.draw(small, label="outer_dim"), data.draw(small, label="middle_dim")
    # a dimension past the 1024 cap is refused before anything is built
    huge = data.draw(st.sampled_from([None, None, "outer", "middle"]), label="huge")
    if huge:
        size = data.draw(st.integers(1025, 10 ** 6), label=huge)
        outer, middle = (size, middle) if huge == "outer" else (outer, size)
    code, out = printed_value(["signalling", "factorize", f"n={n}", f"outer_dim={outer}",
                               f"middle_dim={middle}"])
    accepted = (n >= 1 and max(4, n * n) <= min(outer, middle)
                and max(outer, middle) <= 1024 and outer * outer * middle <= 2 ** 20)
    event(f"accepted={accepted}")
    if accepted:
        assert code in (EXIT_OK, EXIT_TOLERANCE)
        assert math.isfinite(float(out.removeprefix("factorization residual")))
    else:
        assert code == EXIT_CONFIG and out == ""


@settings(max_examples=30, **SETTINGS)
@given(n_grid=st.one_of(st.integers(3, 50_000), st.integers(-3, 2),
                        st.integers(10 ** 6 + 1, 10 ** 18)))
def test_cutoff_minimize_prints_a_finite_value_or_refuses(n_grid):
    # grids past the 10^6 cap are refused before any array is allocated
    code, out = printed_value(["cutoff", "minimize", f"n_grid={n_grid}"])
    accepted = 3 <= n_grid <= 10 ** 6
    event(f"accepted={accepted}")
    if accepted:
        assert code == EXIT_OK and math.isfinite(float(out))
    else:
        assert code == EXIT_CONFIG and out == ""


# cutoff energy: t is drawn as a multiple of s/(s-1)
@settings(max_examples=30, **SETTINGS)
@given(s=st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e6), ANY_FLOAT),
       t_ratio=st.one_of(st.floats(1.0, 1e6), st.floats(0.0, 1.0), ANY_FLOAT))
def test_cutoff_energy_prints_a_finite_value_or_refuses(s, t_ratio):
    t = t_ratio * threshold(s)
    code, out = printed_value(["cutoff", "energy", f"s={s!r}", f"t={t!r}"])
    accepted = transition_ok(s, t)
    event(f"accepted={accepted}")
    if accepted:
        assert code == EXIT_OK and math.isfinite(float(out))
    else:
        assert code == EXIT_CONFIG and out == ""


# signalling gap: accepted draws stay cheap (d_factor <= 64, samples <= 20); a
# d_factor or sample count past its cap is refused before anything is built
GAP_KEYS = {"epsilon": (st.one_of(st.floats(1e-6, 0.05), st.sampled_from([1e-24, 0.05])),
                        ANY_FLOAT),
            "samples": (st.integers(1, 20),
                        st.one_of(st.integers(-2, 0), st.integers(10 ** 5 + 1, 10 ** 18))),
            "d_factor": (st.integers(26, 64),
                         st.one_of(st.integers(-2, 25), st.integers(257, 10 ** 18)))}


@settings(max_examples=20, **SETTINGS)
@given(broken=st.sampled_from([None, *GAP_KEYS]), data=st.data())
def test_signalling_gap_prints_finite_values_or_refuses(broken, data):
    v = {key: data.draw(fuzz if key == broken else good, label=key)
         for key, (good, fuzz) in GAP_KEYS.items()}
    code, out = printed_value(["signalling", "gap", f"epsilon={v['epsilon']!r}",
                               f"samples={v['samples']}", f"d_factor={v['d_factor']}"])
    accepted = (1e-24 <= v["epsilon"] <= 0.05 and 1 <= v["samples"] <= 10 ** 5
                and 26 <= v["d_factor"] <= 256)
    event(f"accepted={accepted}")
    if accepted:
        assert code in (EXIT_OK, EXIT_TOLERANCE)
        floor, gap = out.removeprefix("floor").split("min gap")
        assert math.isfinite(float(floor)) and math.isfinite(float(gap))
    else:
        assert code == EXIT_CONFIG and out == ""


# scalar exact and sweep: besides the schema, cone presets are three-dimensional
# and massless and wedge presets one- or two-dimensional, and every ball a
# command builds (radius r, and r -+ 2 epsilon for the bounds) has a radius in
# [1e-100, 1e100]; r is drawn up to 1e300 so that this cap is met
def preset_keys(geometry):
    """(good, fuzz) strategies per key; good keeps to the preset rules."""
    cone = geometry == "cone"
    return {"d": (st.just(3) if cone else st.sampled_from([1, 2]), st.integers(-1, 5)),
            "mass": (st.just(0.0) if cone else st.one_of(st.floats(0.0, 10.0),
                                                          st.floats(0.0, 1e100)),
                     st.one_of(st.floats(0.1, 10.0), ANY_FLOAT)),
            "r": (st.one_of(st.floats(0.1, 10.0), st.floats(1e-3, 1e300),
                            st.sampled_from([1e-100, 1e100])), ANY_FLOAT),
            "data": (st.sampled_from(["interior", "boundary"]),
                     st.sampled_from(["", "edge", "INTERIOR"]))}


def preset_ok(geometry, d, mass, r, data):
    in_schema = (d in (1, 2, 3) and 0.0 <= mass <= 1e100 and 0.0 < r < math.inf
                 and data in ("interior", "boundary"))
    if geometry == "wedge":
        return in_schema and d in (1, 2)
    return in_schema and d == 3 and mass == 0.0 and 1e-100 <= r <= 1e100


def draw_preset(data, geometry, broken):
    """Every key by the preset rules, or one key drawn from anything."""
    return {key: data.draw(fuzz if key == broken else good, label=key)
            for key, (good, fuzz) in preset_keys(geometry).items()}


def preset_argv(action, geometry, v):
    return ["scalar", action, f"geometry={geometry}", f"d={v['d']}", f"mass={v['mass']!r}",
            f"r={v['r']!r}", f"data={v['data']}"]


@settings(max_examples=30, **SETTINGS)
@given(geometry=st.sampled_from(["wedge", "cone"]),
       broken=st.sampled_from([None, "d", "mass", "r", "data"]), data=st.data())
def test_scalar_exact_prints_a_finite_value_or_refuses(geometry, broken, data):
    v = draw_preset(data, geometry, broken)
    code, out = printed_value(preset_argv("exact", geometry, v))
    accepted = preset_ok(geometry, **v)
    event(f"accepted={accepted}")
    if accepted:
        assert code == EXIT_OK and math.isfinite(float(out))
    else:
        assert code == EXIT_CONFIG and out == ""


# sweep entries eps:s:t, with t drawn as a multiple of s/(s-1); unless the
# schedule is the broken key, two entries are sorted so that they squeeze
GOOD_ENTRY = st.tuples(st.floats(1e-4, 0.04), st.floats(1.01, 3.0), st.floats(1.0, 2.0))
ANY_ENTRY = st.tuples(st.one_of(st.floats(0.9, 1.1), ANY_FLOAT),
                      st.one_of(st.floats(1.01, 3.0), ANY_FLOAT),
                      st.one_of(st.floats(0.5, 1.0), ANY_FLOAT))


def squeezes(schedule, geometry, r):
    for eps, s, t in schedule:
        if not (1e-100 <= eps <= 1e100 and transition_ok(s, t)):
            return False
        if geometry == "cone" and not (1e-6 * r <= eps < r / 2.0 and 1e-100 <= r - 2.0 * eps
                                       and r + 2.0 * eps <= 1e100):
            return False
    return all(e1 <= e0 and s1 <= s0 and t1 >= t0
               for (e0, s0, t0), (e1, s1, t1) in zip(schedule, schedule[1:]))


@settings(max_examples=20, **SETTINGS)
@given(geometry=st.sampled_from(["wedge", "cone"]),
       broken=st.sampled_from([None, "d", "mass", "r", "data", "schedule"]), data=st.data())
def test_scalar_sweep_writes_finite_values_or_refuses(geometry, broken, data):
    v = draw_preset(data, geometry, broken)
    entries = data.draw(st.lists(ANY_ENTRY if broken == "schedule" else GOOD_ENTRY,
                                 min_size=1, max_size=2), label="schedule")
    schedule = [(eps, s, ratio * threshold(s)) for eps, s, ratio in entries]
    if broken != "schedule":
        eps, s, t = (sorted(column) for column in zip(*schedule))
        schedule = list(zip(eps[::-1], s[::-1], t))
    text = ";".join(":".join(repr(x) for x in entry) for entry in schedule)
    with tempfile.TemporaryDirectory() as out_dir:
        code, out = printed_value(preset_argv("sweep", geometry, v)
                                  + [f"schedule={text}", f"--out={out_dir}"])
        accepted = preset_ok(geometry, **v) and squeezes(schedule, geometry, v["r"])
        event(f"accepted={accepted}")
        assert out == ""
        if accepted:
            assert code in (EXIT_OK, EXIT_TOLERANCE)
            rows = (Path(out_dir) / "results.csv").read_text().split()[1:]
            assert len(rows) == len(schedule)
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
            summary = json.loads((Path(out_dir) / "summary.json").read_text())
            assert all(math.isfinite(x) for x in summary.values() if isinstance(x, float))
        else:
            assert code == EXIT_CONFIG
