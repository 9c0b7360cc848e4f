"""The public surface that the README and the benchmark tooling reach.

Deleting or renaming a library name breaks these readers without breaking
any library test, so both are checked here.
"""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_spans_wrap_existing_names():
    # perfbench/run.py --trace 1 wraps every listed function and method
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, attr in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"fracbundle.{module}"), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls, attr in spans.METHODS:
        owner = getattr(importlib.import_module(f"fracbundle.{module}"), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    assert len(spans.FUNCTIONS) > 0 and len(spans.METHODS) > 0
    assert not missing


def test_readme_quick_start_runs_and_certifies():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    printed = []
    exec(compile(code, "README.md quick start", "exec"), {"print": printed.append})
    assert len(printed) == 1
    assert printed[0]["passed"] is True


def test_readme_constants_match_the_library():
    # every `[module.]NAME = value` in the numerical conventions names a
    # library constant of that value; the module defaults to reconstruction
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Numerical conventions", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+) = ([^`\n]+)`", section)
    assert len(stated) >= 8
    wrong = []
    for module, name, value in stated:
        owner = importlib.import_module(f"fracbundle.{module or 'reconstruction'}")
        if getattr(owner, name, None) != eval(value, {"__builtins__": {}}):
            wrong.append(f"{module or 'reconstruction'}.{name} = {value}")
    assert not wrong
