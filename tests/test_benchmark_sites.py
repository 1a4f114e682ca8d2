"""The benchmark's tracer wraps conecal functions by module and attribute path.

Its tests are not part of this suite, so a rename in ``src`` that breaks a
wrapped site would only show when the benchmark runs. ``perfbench/tracing.py``
is parsed here, not imported or executed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import json

import pytest

from conecal import synth
from conecal.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# sites that the pipeline never reaches through the wrapped name
KNOWN_DEAD = {
    # calibrate imports the name only so that the wrapper resolves; its
    # traces run the cover, exit and landing stages directly
    "conecal.calibrate.trace_pixels",
    # only the scalar raycast calls it in raytrace's namespace; synth's own
    # wrapper of the same span name counts the pipeline's calls
    "conecal.raytrace.raycast_pixels",
}


def wrapped_entries():
    """The parsed ``tracing.py`` and the entries of its ``WRAPPED``, as ast tuples."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return tree, node.value.elts
    raise AssertionError("perfbench/tracing.py defines no WRAPPED")


def wrapped_sites():
    """``(module, attribute path)`` of every entry of ``tracing.WRAPPED``."""
    return [(entry.elts[0].value, entry.elts[1].value) for entry in wrapped_entries()[1]]


def positional_reads(tree, hook):
    """``(index, name)`` of every argument a ``WRAPPED`` pre hook reads with
    ``_arg(args, kwargs, index, name)``: the hook is a function of
    ``tracing.py`` named by ``hook``, a ``_pre_path(index, name)`` call, or None."""
    if isinstance(hook, ast.Call):
        assert isinstance(hook.func, ast.Name) and hook.func.id == "_pre_path", ast.dump(hook)
        return [tuple(arg.value for arg in hook.args)]
    if isinstance(hook, ast.Name):
        (body,) = [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == hook.id
        ]
        return [
            tuple(arg.value for arg in call.args[2:])
            for call in ast.walk(body)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_arg"
        ]
    assert isinstance(hook, ast.Constant) and hook.value is None, ast.dump(hook)
    return []


def resolve(module_name, path):
    """The owner of a wrapped site's attribute, and the attribute's name."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_wrapped_site_resolves():
    sites = wrapped_sites()
    assert sites
    for module_name, path in sites:
        assert module_name.split(".")[0] == "conecal", module_name
        owner, attr = resolve(module_name, path)
        # the tracer reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{module_name}.{path}"


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_positional_hook_read_names_the_parameter_at_that_position():
    # a hook falls back to the keyword only when the call passed fewer
    # positional arguments, so a renamed or reordered parameter would make it
    # count the wrong argument, or raise, only when the benchmark runs
    tree, entries = wrapped_entries()
    hooked = 0
    for entry in entries:
        module_name, path, hook = entry.elts[0].value, entry.elts[1].value, entry.elts[3]
        owner, attr = resolve(module_name, path)
        parameters = list(inspect.signature(vars(owner)[attr]).parameters)
        reads = positional_reads(tree, hook)
        # each hook reads its arguments through _arg, so none reads nothing
        assert bool(reads) == (not isinstance(hook, ast.Constant)), f"{module_name}.{path}"
        for index, name in reads:
            assert parameters[index : index + 1] == [name], (
                f"{module_name}.{path} parameter {index} is not {name!r}: {parameters}"
            )
        hooked += bool(reads)
    assert hooked > 0


def importable(module_name, name):
    """Whether ``from module_name import name`` would succeed."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    # from a package, the name may be a submodule not yet imported
    submodule = f"{module_name}.{name}"
    return hasattr(module, "__path__") and importlib.util.find_spec(submodule) is not None


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ is not in this checkout")
def test_every_benchmark_import_from_conecal_resolves():
    # deleting or renaming a public name in src would otherwise break the
    # benchmark, or its own tests, only when they run
    imports = []  # (file, module, name or None for a plain import)
    for source in sorted(PERFBENCH.rglob("*.py")):
        where = str(source.relative_to(PERFBENCH.parent))
        for node in ast.walk(ast.parse(source.read_text(), filename=where)):
            if isinstance(node, ast.Import):
                imports += [(where, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports += [(where, node.module, alias.name) for alias in node.names]
    imports = [entry for entry in imports if entry[1].split(".")[0] == "conecal"]
    assert imports
    unresolved = [
        entry
        for entry in imports
        if not (importlib.util.find_spec(entry[1]) if entry[2] is None else importable(*entry[1:]))
    ]
    assert unresolved == []


def counted(calls, site, original):
    def wrapper(*args, **kwargs):
        calls[site] += 1
        return original(*args, **kwargs)

    return wrapper


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_wrapped_site_is_called(tmp_path, monkeypatch, capsys):
    # a site that resolves but is no longer called (say, a function that a
    # rewrite inlined) would read 0 in its per-layer metrics without failing
    calls = {}
    for module_name, path in wrapped_sites():
        owner, attr = resolve(module_name, path)
        site = f"{module_name}.{path}"
        calls[site] = 0
        monkeypatch.setattr(owner, attr, counted(calls, site, vars(owner)[attr]))

    data, fit, report = (str(tmp_path / name) for name in ("data", "fit", "report"))
    assert main(["generate", "--out", data, "--seed", "1", "--images", "3", "--grid", "3x3"]) == 0
    observations = str(tmp_path / "data" / "observations.json")
    assert main(
        ["calibrate", "--observations", observations, "--out", fit, "--refine-poses",
         "--grid", "3x3", "--steps", "2"]
    ) == 0
    fitted = str(tmp_path / "fit" / "fitted_surface.json")
    assert main(
        ["analyze", "--observations", observations, "--fitted", fitted, "--out", report,
         "--stride", "400"]
    ) == 0
    capsys.readouterr()

    assert {site for site, n in calls.items() if n == 0} == KNOWN_DEAD


def test_every_sampled_pose_is_projected(tmp_path, monkeypatch, capsys):
    # the benchmark's own tests pin synth.pose_attempts >= 2 on their small
    # scene, counting project_corners calls inside sample_pose; a sampler
    # that accepted a pose without projecting it would break that pin only
    # when the benchmark runs
    projections = []  # per sample_pose call
    in_sampler = []
    project = synth.project_corners
    sample_pose = synth.PoseSampler.sample_pose

    def counting_project(*args, **kwargs):
        if in_sampler:
            projections[-1] += 1
        return project(*args, **kwargs)

    def counted_sample_pose(*args, **kwargs):
        projections.append(0)
        in_sampler.append(True)
        try:
            return sample_pose(*args, **kwargs)
        finally:
            in_sampler.pop()

    monkeypatch.setattr(synth, "project_corners", counting_project)
    monkeypatch.setattr(synth.PoseSampler, "sample_pose", counted_sample_pose)
    scene = tmp_path / "scene.json"
    scene.write_text(
        json.dumps(
            {
                "board": {"square_size_m": 0.03, "corners_per_side": 4},
                "generate": {"n_images": 2},
                "surface": {"grid_rows": 3, "grid_cols": 3},
            }
        )
    )
    out = str(tmp_path / "data")
    assert main(["generate", "--config", str(scene), "--out", out, "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(projections) == 2
    assert all(n >= 1 for n in projections)
