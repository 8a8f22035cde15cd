"""Every hook of the benchmark tracer (perfbench/tracer.py) names a function
that exists.

The tracer wraps elastinet functions by module and attribute name, so a
rename such as ``FeatureEncoder.cat_matrix`` or ``cli.prepare_model`` would
otherwise only show up in a traced benchmark run. Each target is resolved
the way the tracer resolves it; nothing is wrapped.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import HOOKS, _resolve  # noqa: E402


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: hook.target)
def test_hook_target_resolves(hook):
    owner, name, value = _resolve(hook)
    assert getattr(owner, name) is value
