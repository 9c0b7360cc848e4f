"""The public surface that the README and the benchmark tooling reach.

Deleting or renaming a library name breaks these readers without breaking
any library test, so both are checked here.  So is the import cost that
every `fracbundle run` pays before it reads its config.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracbundle
from fracbundle.config import KNOWN_TASKS

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


def test_knob_census_stays_within_its_bound():
    # every defaulted parameter is a knob a caller can turn without a
    # config: function defaults, positional and keyword-only, plus the
    # fields with a value of a class decorated with dataclass.  A change
    # that adds one raises this bound and says why
    functions = fields = 0
    for path in sorted((ROOT / "src" / "fracbundle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                functions += len(node.args.defaults)
                functions += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
                if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                       for d in decorators):
                    fields += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                  for stmt in node.body)
    assert functions > 0 and fields > 0
    assert functions + fields <= 12


def test_readme_quick_start_runs_and_certifies():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    printed = []
    exec(compile(code, "README.md quick start", "exec"),
         {"print": lambda *args: printed.append(args)})
    assert len(printed) == 1
    deviations, certified = printed[0]
    assert certified is True and max(deviations) < 1e-3


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


def library_callables():
    """{name: [(function or class, whether it takes self)]} of the functions,
    classes and methods each module of src/fracbundle defines."""
    found = {}
    for info in pkgutil.iter_modules(fracbundle.__path__):
        module = importlib.import_module(f"fracbundle.{info.name}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported from another module, listed there
            found.setdefault(name, []).append((obj, False))
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                if isinstance(member, staticmethod):
                    found.setdefault(attr, []).append((member.__func__, False))
                elif inspect.isfunction(member):
                    found.setdefault(attr, []).append((member, True))
    return found


def test_readme_calls_match_the_library():
    # every backticked `name(args)` that parses as a Python call, nested
    # calls too, and names one library function, class or method (a module
    # or class prefix picks among names defined twice) passes arguments its
    # signature accepts
    found = library_callables()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    checked, wrong = 0, []
    for text in re.findall(r"`([^`\n]+)`", readme):
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            candidates = found.get(func.attr if isinstance(func, ast.Attribute)
                                   else getattr(func, "id", None), [])
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                prefix = func.value.id
                candidates = [c for c in candidates
                              if c[0].__module__ == f"fracbundle.{prefix}"
                              or c[0].__qualname__.startswith(f"{prefix}.")] or candidates
            if len(candidates) != 1:
                continue
            obj, takes_self = candidates[0]
            signature = inspect.signature(obj)
            signature = signature.replace(
                parameters=list(signature.parameters.values())[takes_self:])
            try:
                signature.bind(*call.args, **{k.arg: None for k in call.keywords})
            except TypeError:
                wrong.append(text)
            checked += 1
    assert checked >= 30
    assert wrong == []


def test_readme_options_match_config():
    # the option keys the command-line section lists are the keys
    # parse_config accepts (it fills in every one), and every
    # `options.<key>` it names is one of them
    from fracbundle.config import parse_config

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"The `options` object takes these keys only: (.*?);", section,
                       flags=re.S).group(1)
    accepted = set(parse_config(readme_example_config()).options)
    assert len(accepted) == 7
    assert set(re.findall(r"`(\w+)`", listed)) == accepted
    assert set(re.findall(r"`options\.(\w+)`", section)) <= accepted


def test_readme_bundle_specs_match_build_bundle():
    # every `connection` and `potential` value the command-line section
    # lists builds; "explicit" (given arrays go to HermitianBundle) and an
    # unknown value are refused
    from fracbundle.bundle import build_bundle
    from fracbundle.errors import BundleError
    from fracbundle.manifold import build_manifold

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    connections = re.findall(r"`(\w+)`", re.search(r"`connection` is\s(.*?);", section,
                                                   flags=re.S).group(1))
    potentials = re.findall(r"`(\w+)`", re.search(r"`potential` is\s(.*?)\(", section,
                                                  flags=re.S).group(1))
    assert len(connections) >= 2 and len(potentials) >= 3
    m = build_manifold({"kind": "cycle", "count": 5, "length": 5.0})
    for value in connections:
        build_bundle(m, 2, connection=value, seed=1)
    for value in potentials:
        build_bundle(m, 2, potential=value, seed=1)
    for value in ("explicit", "bogus"):
        with pytest.raises(BundleError):
            build_bundle(m, 2, connection=value)
        with pytest.raises(BundleError):
            build_bundle(m, 2, potential=value)


IMPORT_GUARD = """
import json, sys
import fracbundle, fracbundle.runner, fracbundle.cli
from fracbundle import reconstruction
from fracbundle.config import parse_config
from fracbundle.manifold import build_manifold, shortest_distances
from fracbundle.runner import run_experiment

def scipy_submodules():
    # the scipy submodules, and numpy.ma, which a flagless np.unique imports
    return sorted(m for m in sys.modules if m.split(".")[:2] in
                  (["scipy", "fft"], ["scipy", "sparse"], ["scipy", "linalg"], ["numpy", "ma"]))

readme_cfg, torus_cfg, cycle_cfg = (json.loads(arg) for arg in sys.argv[1:4])
parse_config(readme_cfg)
loaded = {"parse": scipy_submodules()}
report = run_experiment(parse_config(torus_cfg))
loaded["run"] = scipy_submodules()
loaded["status"] = [t.status for t in report.tasks]
shortest_distances(build_manifold(readme_cfg["manifold"]), range(16))
loaded["oracle"] = scipy_submodules()
gram, loaded["lapack_after_gram"] = reconstruction.family_gram, []

def recorded(*args):
    out = gram(*args)
    loaded["lapack_after_gram"].append("scipy.linalg._flapack" in sys.modules)
    return out

reconstruction.family_gram = recorded
report = run_experiment(parse_config(cycle_cfg))
loaded["distances"] = scipy_submodules()
loaded["distance_status"] = [t.status for t in report.tasks]
print(json.dumps(loaded))
"""


def test_import_and_parse_load_no_scipy_submodule():
    # scipy.fft, scipy.sparse and scipy.linalg cost about 0.4 s to import;
    # no run imports one.  A fresh interpreter imports the package and parses
    # the README config, runs the blago check and operator recovery on a
    # small torus, then the shortest-path oracle on the README cycle: none
    # loads scipy.  A distance task on a smaller README-like cycle then loads
    # scipy's LAPACK extension alone, without the scipy.linalg package around
    # it, and only after the probe Gram, the run's memory peak, is built.
    # No phase loads numpy.ma either (9-13 ms and 1.3 MB in a fresh
    # interpreter): in numpy 2.4 a np.unique without flags imports it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example config:", 1)[1]
    readme_cfg = re.search(r"```json\n(.*?)```", example, flags=re.S).group(1)
    torus_cfg = {
        "manifold": {"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]},
        "bundle": {"rank": 1, "connection": "random", "potential": "random_positive",
                   "seed": 3},
        "region": {"type": "block", "rows": 4, "cols": 4},
        "time": {"horizon": 4.0, "steps": 400},
        "tasks": ["verify_blago", "reconstruct_operator"],
        "options": {"probe_width": 1.0},
    }
    cycle_cfg = dict(json.loads(readme_cfg), tasks=["reconstruct_distances"], time={
        "horizon": 4.5, "steps": 384})
    cycle_cfg["manifold"] = dict(cycle_cfg["manifold"], count=24)
    cycle_cfg["region"] = dict(cycle_cfg["region"], count=8)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, readme_cfg, json.dumps(torus_cfg),
                           json.dumps(cycle_cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {"parse": [], "run": [], "status": ["pass", "pass"], "oracle": [],
                      "lapack_after_gram": [False], "distances": ["scipy.linalg._flapack"],
                      "distance_status": ["pass"]}


NO_POLYNOMIAL = """
import json, sys
import numpy

class NoPolynomial:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a numpy.poly1d was built")

numpy.poly1d = NoPolynomial
import fracbundle, fracbundle.runner, fracbundle.cli
from fracbundle.config import parse_config

parse_config(json.loads(sys.argv[1]))
"""


def test_import_builds_no_polynomial_object():
    # timequad's moment table is built at import in plain floats: a numpy
    # poly1d build of it took about 18 ms, half of the package's own import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", NO_POLYNOMIAL, json.dumps(readme_example_config())],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


POTRF_ALONE = """
import json, sys
import numpy as np
from fracbundle import reconstruction
from fracbundle.errors import ReconstructionError

rng = np.random.default_rng(11)
grams = []
for n in (1, 5, 32, 129):
    for is_complex in (False, True):
        A = rng.standard_normal((n, n + 3))
        if is_complex:
            A = A + 1j * rng.standard_normal((n, n + 3))
        grams.append(A @ A.conj().T)
reg = 1e-6
factors = [reconstruction._ridge_factor(G.copy(), reg) for G in grams]
out = {"alone": "scipy.linalg" not in sys.modules}
refused = []
for G in grams:
    try:
        reconstruction._ridge_factor(-G, reg)
        refused.append(False)
    except ReconstructionError as exc:
        refused.append("not positive definite" in str(exc))
out["refused"] = refused
from scipy.linalg import lapack

same = []
for G, L in zip(grams, factors):
    M = G.copy()
    M[np.diag_indices(len(M))] += reg
    potrf = lapack.zpotrf if np.iscomplexobj(M) else lapack.dpotrf
    ref, info = potrf(M.T, lower=1, clean=0)
    same.append(info == 0 and L.dtype == ref.dtype and np.array_equal(np.tril(L), np.tril(ref)))
out["same"] = same
print(json.dumps(out))
"""


def test_potrf_loaded_alone_matches_scipy_linalg_lapack():
    # the sweeps load scipy's LAPACK extension without the scipy.linalg
    # package.  In a fresh interpreter, factors of random real and complex
    # Hermitian matrices taken that way are bit-identical to those of
    # scipy.linalg.lapack, imported afterwards as the reference, and a
    # matrix that is not positive definite is a ReconstructionError
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", POTRF_ALONE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"alone": True, "refused": [True] * 8, "same": [True] * 8}


# The functions of src/fracbundle that a small run of every task does not
# reach, by the reason each stays; README's "Public surface" names each one
UNREACHED = {
    "wrapped by perfbench/spans.py or a test reference": (
        "propagators.duhamel_solve", "propagators.mode_convolve", "propagators.pl_spectra",
        "reconstruction.family_responses", "reconstruction.ProbeEngine.max_residual",
        "s2s.frac_map_assemble", "timequad.interval_integrals", "timequad.prefix_integrals",
        "timequad.time_average_nodes", "timequad.time_average_linear",
        "timequad.pl_times_sampled_array"),
    "the paper's containment predicate": ("reconstruction.ProbeEngine.containment",),
    "the payload round trips that acceptance 9 checks": (
        "s2s.LocalStructure.to_payload", "s2s.LocalStructure.from_payload",
        "s2s.FracMapData.apply", "s2s.FracMapData.to_payload", "s2s.FracMapData.from_payload",
        "s2s.WaveMapData.to_payload", "s2s.WaveMapData.to_payload.blocks",
        "s2s.WaveMapData.from_payload", "s2s.WaveMapData.from_payload.packed",
        "s2s._payload_block",
        "serialize.real_to_list", "serialize.complex_to_list", "serialize.complex_from_list",
        "propagators.pack_hermitian"),
    "a config value no pinned workload uses": ("bundle.random_hermitian",),
    "group operations": ("bundle.GaugeTransform.identity", "bundle.GaugeTransform.inverse"),
    "raised only for a refused config": ("errors.ConfigError.__init__",),
    "runs only for profiles nonzero at t = 0": ("s2s._b_up_sums",),
}

REACH = """
import json, os, sys
src = os.path.join(sys.argv[1], "")
reached = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        reached.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(record)
from fracbundle import cli
for path, out in zip(sys.argv[2::2], sys.argv[3::2]):
    cli.main(["run", path, "--out", out])
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def defined_functions():
    """{(file name, first line): dotted name} of every function and method
    defined in src/fracbundle, nested ones too; the first line is that of
    the first decorator, as in the function's code object."""
    found = {}

    def visit(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(name, line)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", name)
            else:
                visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef)
                      else prefix, name)

    for path in sorted((ROOT / "src" / "fracbundle").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def test_every_function_is_reached_or_listed(tmp_path):
    # a fresh interpreter, profiled from before `import fracbundle` so that
    # import-time calls count, runs every task on a small cycle and on a small
    # torus whose 4x4 chart has loops; task statuses do not matter, only
    # reach.  Each function of src/fracbundle is reached or listed, each
    # listed one is defined and unreached, and README names it
    cycle = dict(readme_example_config(), tasks=list(KNOWN_TASKS),
                 time={"horizon": 4.5, "steps": 384})
    cycle["manifold"] = dict(cycle["manifold"], count=24)
    cycle["region"] = dict(cycle["region"], count=8)
    torus = {
        "manifold": {"kind": "torus_grid", "counts": [6, 6], "lengths": [6.0, 6.0]},
        "bundle": {"rank": 2, "connection": "random", "potential": "random_positive",
                   "potential_scale": 0.3, "potential_shift": 0.2, "seed": 3},
        "region": {"type": "block", "rows": 4, "cols": 4},
        "time": {"horizon": 4.0, "steps": 400},
        "tasks": list(KNOWN_TASKS),
        "seed": 4,
        "options": {"probe_delta": 1.2, "probe_lead_step": 0.5, "probe_width": 1.0},
    }
    args = []
    for name, cfg in (("cycle", cycle), ("torus", torus)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        args += [str(tmp_path / f"{name}.json"), str(tmp_path / name)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", REACH, str(ROOT / "src" / "fracbundle"), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}
    defined = defined_functions()
    listed = [name for names in UNREACHED.values() for name in names]
    assert len(set(listed)) == len(listed)
    reached_names = {name for key, name in defined.items() if key in reached}
    assert len(reached_names) > 100
    assert sorted(set(defined.values()) - reached_names - set(listed)) == []
    assert sorted(set(listed) & reached_names) == []
    assert sorted(set(listed) - set(defined.values())) == []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Public surface", 1)[1].split("\n## ", 1)[0]
    assert sorted(name for name in listed if f"`{name}`" not in section) == []


def readme_example_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example config:", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", example, flags=re.S).group(1))


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["readme", *benchmark_workloads()])
def test_config_echo_is_strict_json_and_parses_to_the_same_config(name):
    # report.json echoes the parsed config so that a run can be repeated
    from fracbundle.config import parse_config

    raw = readme_example_config() if name == "readme" else benchmark_workloads()[name]
    echo = parse_config(raw).echo()
    text = json.dumps(echo, allow_nan=False)
    assert parse_config(echo) == parse_config(raw)
    assert parse_config(json.loads(text)) == parse_config(raw)
