"""CLI contract under arbitrary config values: on the triangle, every field
may take a value from a fixed alphabet (nan, inf, negatives, huge and
subnormal numbers, fractional counts, empty strings, garbage text, repeated
or blank list entries and valid values), and the run must end in exit 0, 2
or 4; a failure prints exactly one `error:` line, and nothing raises or warns.  Runs stay small: 3 agents in the base
topology, l_max <= 50 and trials <= 3."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cfosync.cli import main

NUMBERS = ["0", "1", "0.5", "2", "100", "-1", "-1e308", "1e308", "1e-320",
           "nan", "inf", "-inf"]
JUNK = ["", "garbage"]
NUM = st.sampled_from(NUMBERS + JUNK)


def _choice(*values):
    return st.sampled_from(list(values) + JUNK)


def _template(text, **parts):
    return st.fixed_dictionaries(parts).map(lambda p: text.format(**p))


TIMELINE_EVENT = st.one_of(
    _template("{k}:leave:{a}", k=_choice("0", "1", "2", "-1", "nan", "100"),
              a=_choice("1", "2", "3", "9", "nan")),
    _template("{k}:join:{x},{y}", k=_choice("0", "1", "2", "-1"), x=NUM, y=NUM))

FIELDS = {
    "topology": st.one_of(
        _choice("edges:1-2;1-3;2-3", "edges:1-2;2-3", "edges:1-1", "edges:1-2;x",
                "nan", "random:n=3"),
        _template("random:n={n},width={w},height={h},radius={r},seed={s}{more}",
                  n=_choice("3", "2", "1", "-1", "nan", "inf", "1e-320", "2.5"),
                  w=NUM, h=NUM, r=NUM, s=_choice("0", "1", "-1", "nan", "1.9"),
                  more=st.sampled_from(["", ",n=3", ", ,"]))),
    "positions": st.one_of(
        _choice("1:0,0;2:100,0;3:0,100", "1:0,0", "1:0,0;2:100,0;3:0,100;2:100,0"),
        _template("1:{x},{y};2:100,0;3:0,100", x=NUM, y=NUM)),
    "radius": NUM,
    "reference": _choice("1", "2", "3", "4", "0", "-1", "nan"),
    "algorithm": _choice("lsbp", "bp"),
    "schedule": _choice("synchronous", "asynchronous"),
    "init_mode": _choice("zero_precision", "uniform"),
    "init_variance": NUM,
    "init_mean": NUM,
    "max_offset": NUM,
    "sigma": NUM,
    "sigma_overrides": st.one_of(
        _choice("1-2:1.0;2-1:1.0"),
        _template("{e}:{v}", e=_choice("1-2", "2-3", "1-4", "1-1"), v=NUM)),
    "pdr": NUM,
    "skip_prob": NUM,
    "timeline": st.one_of(_choice(), st.lists(TIMELINE_EVENT, min_size=1, max_size=3)
                          .map(";".join)),
    "l_max": _choice("0", "1", "10", "50", "-1", "nan", "1e308"),
    "mean_tol": NUM,
    "prec_tol": NUM,
    "mse_normalization": NUM,
    "trials": _choice("1", "2", "3", "0", "-1", "nan"),
    "master_seed": _choice("0", "7", "-1", "123456789012345678901234567890", "nan"),
    "reference_precision": NUM,
    "oracle": _choice("true", "false", "1"),
}
BASE = {"topology": "edges:1-2;1-3;2-3", "l_max": "30", "trials": "2"}


def _text(**fields):
    """Config text: the base fields, replaced or added to by `fields`."""
    return "".join(f"{k} = {v}\n" for k, v in {**BASE, **fields}.items())


# inputs that must exit 2: fractional counts, repeated list entries and
# positions on a random topology, which used to run on a truncated value, on
# the last entry or on the generated placement
REJECTED = (
    _text(topology="random:n=2.5,width=100,height=100,radius=200"),
    _text(topology="random:n=3,width=100,height=100,radius=200,seed=1.9"),
    _text(topology="random:n=3,width=100,height=100,radius=200,seed=1,n=12"),
    _text(positions="1:0,0;2:100,0;3:0,100;2:900,900"),
    _text(sigma_overrides="1-2:1.0;2-1:3.0"),
    _text(topology="random:n=5,width=100,height=100,radius=200,seed=1",
          positions="1:0,0;2:1e6,1e6"),
)


@st.composite
def config_texts(draw):
    """The base config with up to five fields replaced; fewer replacements
    reach deeper than a config that fails its first check."""
    names = draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=5, unique=True))
    return _text(**{k: draw(FIELDS[k]) for k in names})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(config_texts())
# inputs that ended in a traceback, a warning or a silent no-op before they
# were fixed
@example(_text(reference="4"))                                   # not in the graph
@example(_text(topology="edges:1-1"))                            # self loop
@example(_text(positions="1:0,0"))                               # agents without one
@example(_text(topology="random:n=nan,width=100,height=100"))    # n not an integer
@example(_text(topology="random:n=2,width=1e308,height=1,radius=inf"))  # overflow
@example(_text(topology="random:n=4,width=1e12,height=1e12,radius=1e-8,retries=2"))
@example(_text(positions="1:0,0;2:100,0;3:0,100;9:5,5", radius="50",   # not an agent
               timeline="1:join:5,6"))
@example(_text(init_mode="uniform", init_variance="1e-320"))     # 1/v overflows
@example(_text(init_mode="uniform", init_mean="1e308", init_variance="0.5"))
@example(_text(init_mode="uniform", init_variance="1e308"))      # trial mean overflows
@example(_text(timeline="1:leave:2;1:leave:3", oracle="true"))   # oracle, no unknowns
@example(_text(algorithm="bp", max_offset="1e13"))               # no divergence
@example(_text(l_max="3", timeline="3:leave:3"))                 # never fires
@example(_text(positions="1:0,0;2:100,0;3:0,100", radius="150",  # a joiner's edge
               timeline="2:join:5,5", sigma_overrides="1-4:3.0"))
@example(_text(positions="1:0,0;2:100,0;3:0,100", radius="150",  # no topology's edge
               timeline="2:join:5,5", sigma_overrides="1-5:3.0"))
@example(_text(topology="edges:1-2;2-3;3-4", timeline="2:leave:2",  # cut off, oracle
               oracle="true"))
@example(REJECTED[0])
@example(REJECTED[1])
@example(REJECTED[2])
@example(REJECTED[3])
@example(REJECTED[4])
@example(REJECTED[5])
def test_any_config_exits_0_2_or_4_with_one_error_line(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "--out", str(Path(tmp) / "out")])
    lines = err.getvalue().splitlines()
    assert rc == 2 if text in REJECTED else rc in (0, 2, 4), text
    assert lines == [] if rc == 0 else len(lines) == 1 and lines[0].startswith(
        f"error: code={rc} "), (text, lines)
    assert not caught, (text, [str(w.message) for w in caught])
