"""The package's public surface: every export resolves, and the README's
library example runs as written."""

import re
from pathlib import Path

import gathersim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    assert len(gathersim.__all__) == len(set(gathersim.__all__)) == 39
    for name in gathersim.__all__:
        assert getattr(gathersim, name) is not None, name
    namespace = {}
    exec("from gathersim import *", namespace)
    assert set(gathersim.__all__) <= namespace.keys()


def test_readme_library_snippet_runs(capsys):
    library = README.read_text().split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(snippet, {})
    # the discrete run converges and prints its step, then the continuous
    # run's bound report prints a finite ceiling
    lines = capsys.readouterr().out.split()
    assert int(lines[0]) > 0 and float(lines[1]) <= 1.0 and float(lines[2]) > 0.0


def test_readme_stepping_by_hand_reproduces_a_run():
    library = README.read_text().split("## Library", 1)[1]
    snippet = re.findall(r"```python\n(.*?)```", library, re.S)[1]
    namespace = {}
    exec(snippet, namespace)
    cfg, state = namespace["cfg"], namespace["state"]
    cfg.max_steps = 10
    trace, _ = gathersim.run_discrete(cfg)
    assert trace.frames[-1].step == 10
    assert (trace.frames[-1].positions == state.positions).all()
    assert (trace.frames[-1].headings == state.headings).all()
