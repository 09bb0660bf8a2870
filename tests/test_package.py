"""The package's public names, what its set-up path imports, the bench
tracer's hooks into it, and the functions that no preset run calls."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cfosync
from cfosync.cli import main
from cfosync.presets import PRESET_NAMES

from helpers import read_trace_csv


def test_public_names_resolve_and_the_scalar_layer_is_gone():
    for name in cfosync.__all__:
        assert hasattr(cfosync, name), name
    for name in ("Gaussian1D", "FLAT", "edge_message", "Measurement"):
        assert not hasattr(cfosync, name), name
    # the broadcast fixed point is a LinearSystem solved by wls_solve
    for name in ("FixedPointSystem", "mean_fixed_point"):
        assert not hasattr(cfosync, name) and not hasattr(cfosync.oracle, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cfosync.gaussian")


def test_set_up_path_does_not_import_orjson(tmp_path):
    # only the trace writer needs orjson, which takes milliseconds to import; a
    # process that only sets up runs must not pay for it.  No run imports
    # numpy.ma (13-25 ms of a fresh process), which a plain np.unique would.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("topology = random:n=20,width=500,height=500,radius=200,seed=3\n"
                   "trials = 3\nl_max = 10\ntimeline = 3:leave:5;6:join:250,250\n")
    code = ("import sys\nimport cfosync\n"
            "from cfosync.config import load_config, parse_topology, validate_config\n"
            f"cfg = load_config({str(cfg)!r})\nvalidate_config(cfg)\nparse_topology(cfg)\n"
            "assert 'orjson' not in sys.modules, 'orjson imported'\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by the set-up'\n"
            "from cfosync.metrics import _cells\n_cells([1.5])\n"
            "assert 'orjson' in sys.modules\n"
            "from cfosync.cli import main\n"
            "for algo in ('lsbp', 'bp'):\n"
            f"    assert main(['--config', {str(cfg)!r}, '--out', {str(tmp_path)!r} + '/' + algo,\n"
            "                 '--oracle', '--algo', algo]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by a run'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cfosync.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _traced(code: str) -> object:
    """The JSON that `code` prints last, run in a fresh interpreter with the
    package, bench/ and tests/ on its path and `tracer` imported.  The
    tracer patches the package's classes process-wide, and its uninstall
    leaves inherited methods shadowed on the subclasses, which would hide a
    later test's patch of the base class; so it never runs in this process."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (Path(cfosync.__file__).parents[1], here.parent / "bench",
                                     here)))
    run = subprocess.run([sys.executable, "-c", "import json, tracer\n" + code],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_every_bench_tracer_hook_resolves():
    # a hook whose target is gone is recorded as absent, and its per-layer
    # bench metric then reads empty instead of failing
    absent = _traced("hooks = tracer.Tracer()\nhooks.install()\n"
                     "hooks.uninstall()\nprint(json.dumps(hooks.absent))\n")
    assert absent == {}


def test_bench_tracer_counts_the_trace_messages(tmp_path):
    # the tracer reads sends, deliveries and drops off the value netsim's
    # counter returns, and would read 0 if it stopped naming them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("topology = edges:1-2;1-3;2-3\npdr = 0.6\nskip_prob = 0.2\n"
                   "master_seed = 4\nl_max = 40\n")
    code, *counts = _traced(
        "from cfosync.cli import main\nhooks = tracer.Tracer()\nhooks.install()\n"
        f"code = main(['--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "hooks.uninstall()\nprint(json.dumps([code] + [hooks.counts[k] for k in (\n"
        "    'netsim.messages_sent', 'netsim.deliveries', 'netsim.drops')]))\n")
    assert code == 0
    rows = {r["iteration"]: r for r in read_trace_csv((tmp_path / "trace.csv").read_text())}
    totals = [sum(r[k] for r in rows.values()) for k in ("broadcasts", "deliveries", "drops")]
    assert totals[2] > 0
    assert counts == totals


def test_readme_quick_start_runs_and_converges():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["est"].converged_


# the package's functions that no preset run nor an asynchronous run calls,
# each with the reason it stays
NEVER_CALLED_BY_A_RUN = {
    # the estimator front ends, which the acceptance criteria and README read
    "edges.MessagePassingEstimator.fit": "front end",
    "lsbp.LinearScalingBP._start": "front end",
    "bp.BeliefPropagation._start": "front end",
    "edges.EdgeEngine.estimates": "front end's fitted estimates_",
    "edges.EdgeEngine.variances": "front end's fitted variances_",
    "lsbp.variance_map": "documented API: the variance recursion's tests read it",
    "lsbp.is_feasible_start": "documented API: the monotone-start condition",
    "graph.Graph.edges": "the bench tracer reads it",
    "graph.Graph.neighbors": "the bench tracer reads it",
    "graph.Graph.degree": "the bench tracer counts its calls",
    "metrics.trace_to_csv": "tests write a trace through it",
    "model.MeasurementSet.__len__": "a test reads it",
    "graph.Graph.from_edges": "the edges: topology input path",
    "graph.canonical_edge": "the edges: topology input path",
    "config.parse_positions": "the positions input path",
    "config._position": "the positions input path",
    "config._sigma_override": "the sigma-override input path",
    "cli._fail": "a failing run's one error line",
    "errors.UnobservableError.__init__": "an oracle run with a cut-off agent",
}


def _package_functions() -> set[str]:
    """Every function and method the package's source defines, as
    module.qualname; class bodies, lambdas and comprehensions are not."""
    found = set()
    for path in sorted(Path(cfosync.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add(f"{path.stem}.{code.co_qualname}")
    return found


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_functions_no_run_calls_are_the_allowed_ones(tmp_path):
    # every preset (2 trials) and one asynchronous LSBP run, under
    # sys.setprofile: a function that no run calls and that is not on the
    # list is dead code; a listed one that a run now calls leaves the list
    package = str(Path(cfosync.__file__).parent)
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            called.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")
    cfg = tmp_path / "async.cfg"
    cfg.write_text("topology = random:n=12,width=1500,height=1500,radius=700,seed=3\n"
                   "schedule = asynchronous\nskip_prob = 0.2\npdr = 0.8\ntrials = 2\n")
    runs = [["--preset", name, "--trials", "2"] for name in PRESET_NAMES]
    sys.setprofile(profile)
    try:
        codes = [main([*args, "--out", str(tmp_path / str(k))]) for k, args in
                 enumerate([*runs, ["--config", str(cfg)]])]
    finally:
        sys.setprofile(None)
    assert codes == [0] * 4
    assert _package_functions() - called == set(NEVER_CALLED_BY_A_RUN)
