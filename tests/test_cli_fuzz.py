"""Fuzzed command lines and input files for the CLI.

Whatever the arguments and file contents, a run exits 0, 1 (an input or
degeneracy error, as JSON on stderr) or 2 (argparse's usage error), never
with a traceback, and never prints a non-finite number.  Magnitudes stay
small where a valid input would only mean more work (sample counts, times,
profile coefficients), so each example runs in milliseconds; huge values
appear only where they must be rejected before any work.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discbraid.cli import main
from discbraid.flows import flow_to_json, make_flow
from discbraid.profiles import make_hs_profile, polynomial_bump, profile_to_json, rotation_profile

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
NON_FINITE = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")

JUNK = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "1/0", "9" * 401, "0x10", "1,2", " "])


def mostly(values):
    """The drawn values, with a junk string in their place one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: JUNK if k == 0 else values)


NUMBER = mostly(
    st.one_of(st.sampled_from(["0", "1", "-1", "2", "1/3", "7/24", "-3/2", "1e-12", "1e30"]), st.floats(-2, 2).map(repr))
)
COORD = mostly(st.one_of(st.floats(-0.7, 0.7).map(repr), st.sampled_from(["0", "0.5", "-0.5", "1.5"])))
POINT = mostly(st.tuples(COORD, COORD).map(",".join))
POINTS = st.lists(st.tuples(COORD, COORD).map(",".join), min_size=1, max_size=4).map(";".join)
SMALL_INT = mostly(st.integers(-2, 5).map(str))

PROFILES = [
    polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96),
    polynomial_bump(Fraction(1, 8), Fraction(1, 2), 60),
    make_hs_profile(Fraction(7, 24)),
    rotation_profile(1),
]
LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-64, 64),
    st.sampled_from([0, 10**20, -(10**20)]),
    st.floats(-64, 64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)


def leaf_paths(doc, path=()):
    """Paths to every leaf of a JSON document, and to every container."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from leaf_paths(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """The document as text: intact, with one node replaced, or not JSON at all."""
    kind = draw(st.sampled_from(["intact", "intact", "node", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "node":
        path = draw(st.sampled_from(list(leaf_paths(doc))))
        if not path:
            return json.dumps(draw(LEAF))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = draw(LEAF)
    return json.dumps(doc)


@st.composite
def profile_text(draw):
    return draw(mutated(json.loads(profile_to_json(draw(st.sampled_from(PROFILES))))))


@st.composite
def flow_text(draw):
    terms = draw(st.lists(st.tuples(st.sampled_from(PROFILES), st.sampled_from([1, -2, Fraction(1, 3), 0.5])), max_size=2))
    doc = json.loads(flow_to_json(make_flow(terms, validate=False)))
    doc["unchecked"] = draw(st.booleans())
    return draw(mutated(doc))


@st.composite
def trajectory_text(draw):
    n, count = draw(st.integers(-1, 3)), draw(st.integers(-1, 4))
    rows = [f"{n},{count}", "time,strand,x,y"]
    times = sorted(draw(st.lists(st.floats(0, 1), min_size=max(count, 0), max_size=max(count, 0))))
    for t in times:
        for i in range(max(n, 0)):
            rows.append(f"{t!r},{i},{draw(COORD)},{draw(COORD)}")
    if draw(st.booleans()) and len(rows) > 1:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.text(max_size=12))
    return "\n".join(rows) + "\n"


@st.composite
def flow_source(draw, tmp_path):
    """--profile FILE [--time T] or --flow FILE, with the file's contents drawn."""
    if draw(st.booleans()):
        path = tmp_path / "profile.json"
        path.write_text(draw(profile_text()))
        return ["--profile", str(path), "--time", draw(NUMBER)] + draw(st.sampled_from([[], ["--unchecked"]]))
    path = tmp_path / "flow.json"
    path.write_text(draw(flow_text()))
    return ["--flow", str(path)]


def options(draw, **choices):
    """Each option with a drawn value, or left out."""
    argv = []
    for flag, values in choices.items():
        if draw(st.booleans()):
            argv += [f"--{flag.replace('_', '-')}={draw(values)}"]
    return argv


def check_run(argv) -> int:
    """Run the CLI, check the exit code and both streams, and return the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    if code == 1:
        assert json.loads(err.getvalue().splitlines()[-1])["error"]
    return code


@FUZZ
@given(data=st.data())
def test_invariant(tmp_path, data):
    draw = data.draw
    kind = draw(st.sampled_from(["lk", "signature", "homogenized", "other"]))
    argv = ["invariant", kind]
    if draw(st.booleans()):
        path = tmp_path / "word.txt"
        path.write_text(draw(st.one_of(st.text(max_size=20), st.lists(st.integers(-4, 4), max_size=8).map(
            lambda letters: "3\n" + " ".join(map(str, letters))
        ))))
        argv += ["--braid-file", str(path)]
    else:
        word = draw(mostly(st.lists(st.integers(-5, 5), max_size=8).map(lambda w: " ".join(map(str, w)))))
        argv += [f"--word={word}"]
    argv += options(draw, strands=SMALL_INT, i=SMALL_INT, j=SMALL_INT, k_max=SMALL_INT)
    argv += options(draw, phi=st.sampled_from(["lk", "signature", "x"]), format=st.sampled_from(["json", "csv"]))
    check_run(argv)


@FUZZ
@given(data=st.data())
def test_flow_apply(tmp_path, data):
    draw = data.draw
    argv = ["flow-apply", *draw(flow_source(tmp_path)), f"--point={draw(POINT)}"]
    argv += draw(st.sampled_from([[], ["--polar"]]))
    argv += options(draw, format=st.sampled_from(["json", "csv"]))
    check_run(argv)


@FUZZ
@given(data=st.data())
def test_make_hs(tmp_path, data):
    draw = data.draw
    argv = ["make-hs", f"--s={draw(NUMBER)}"]
    argv += draw(st.sampled_from([[], ["--out", str(tmp_path / "hs.json")]]))
    check_run(argv)


@FUZZ
@given(data=st.data())
def test_estimate(tmp_path, data):
    draw = data.draw
    argv = ["estimate", *draw(flow_source(tmp_path))]
    argv += [f"--phi={draw(st.sampled_from(['lk', 'signature']))}", f"--n={draw(SMALL_INT)}"]
    argv += [f"--samples={draw(mostly(st.integers(-1, 40).map(str)))}"]
    schedule = st.lists(mostly(st.integers(-1, 4).map(str)), min_size=1, max_size=3).map(",".join)
    argv += options(draw, i=SMALL_INT, j=SMALL_INT, k_schedule=schedule, seed=SMALL_INT)
    argv += options(draw, threads=st.sampled_from(["1", "2", "0", "x"]), format=st.sampled_from(["json", "csv"]))
    check_run(argv)


@FUZZ
@given(data=st.data())
def test_braid_extract(tmp_path, data):
    draw = data.draw
    if draw(st.booleans()):
        path = tmp_path / "traj.csv"
        path.write_text(draw(trajectory_text()))
        argv = ["braid-extract", "--trajectory", str(path)]
    else:
        argv = ["braid-extract", *draw(flow_source(tmp_path)), f"--start={draw(POINTS)}"]
        argv += options(draw, base=POINTS, samples_per_segment=st.sampled_from(["-1", "0", "1", "2", "33", "1000000000"]))
    argv += options(draw, direction=POINT)
    argv += draw(st.sampled_from([[], ["--emit-trajectory", str(tmp_path / "out.csv")]]))
    check_run(argv)


@FUZZ
@given(data=st.data())
def test_lp_length(tmp_path, data):
    draw = data.draw
    if draw(st.booleans()):
        path = tmp_path / "traj.csv"
        path.write_text(draw(trajectory_text()))
        argv = ["lp-length", "--trajectory", str(path)]
    else:
        argv = ["lp-length", *draw(flow_source(tmp_path))]
        huge = st.sampled_from([2**64, 10**30])  # rejected before any allocation
        counts = {"time_steps": st.integers(-1, 5) | huge, "space_samples": st.integers(-1, 40) | huge}
        argv += options(draw, mode=st.sampled_from(["analytic", "sampled", "x"]),
                        **{flag: mostly(values.map(str)) for flag, values in counts.items()})
    argv += options(draw, p=NUMBER, seed=SMALL_INT, format=st.sampled_from(["json", "csv"]))
    check_run(argv)


@pytest.mark.parametrize(
    "argv, code",
    [
        # a freely trivial word stays empty at every power, however large k-max is
        (["invariant", "homogenized", "--word=1 -1", "--strands=2", "--k-max=" + "9" * 401], 0),
        (["invariant", "homogenized", "--word=", "--strands=3", "--k-max=" + "9" * 401], 0),
        (["estimate", "--phi=lk", "--n=2", "--samples=4", "--seed=-1", "--profile={good}"], 2),
        (["verify", "--seed=-1"], 2),
        (["estimate", "--phi=lk", "--n=" + "9" * 401, "--samples=4", "--profile={good}"], 1),
        (["estimate", "--phi=lk", "--n=40000", "--samples=4", "--profile={good}"], 1),
        (["estimate", "--phi=lk", "--n=2", "--samples=" + "9" * 401, "--profile={good}"], 1),
        (["lp-length", "--mode=sampled", "--space-samples=" + "9" * 30, "--profile={good}"], 1),
        (["lp-length", "--mode=sampled", "--time-steps=" + "9" * 30, "--profile={good}"], 1),
        (["flow-apply", "--point=0.5,0", "--profile={zero}"], 1),
        # one piece smooth to every order: the check stops past its degree
        (["flow-apply", "--point=0.5,0", "--profile={smooth}", "--unchecked"], 0),
        (["flow-apply", "--point=0.5,0", "--profile={infinite}", "--unchecked"], 1),
    ],
    ids=[
        "homogenized-trivial", "homogenized-empty", "negative-seed", "verify-seed",
        "huge-n", "large-n", "huge-samples", "huge-space-samples", "huge-time-steps",
        "zero-denominator", "huge-smoothness-class", "infinite-smoothness-class",
    ],
)
def test_found_by_fuzzing(tmp_path, argv, code):
    doc = json.loads(profile_to_json(PROFILES[0]))
    (tmp_path / "good.json").write_text(json.dumps(doc))
    doc["breakpoints"][1] = [1, 0]
    (tmp_path / "zero.json").write_text(json.dumps(doc))
    doc = json.loads(profile_to_json(rotation_profile(1)))
    for name, smoothness in (("smooth", 10**12), ("infinite", float("inf"))):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, smoothness_class=smoothness)))
    names = ("good", "zero", "smooth", "infinite")
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in names}) for arg in argv]
    assert check_run(argv) == code
