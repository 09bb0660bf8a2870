"""The package's public names, what its set-up path imports, and the bench
tracer's hooks into it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfosync
from cfosync.cli import main

from helpers import read_trace_csv


def test_public_names_resolve_and_the_scalar_layer_is_gone():
    for name in cfosync.__all__:
        assert hasattr(cfosync, name), name
    for name in ("Gaussian1D", "FLAT", "edge_message", "Measurement"):
        assert not hasattr(cfosync, name), name
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
