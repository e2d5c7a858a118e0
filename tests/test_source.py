"""Rules that the package's source keeps."""
import ast
import re
from pathlib import Path

import framesim
from framesim.circuit import TAGS

MODULES = sorted(Path(framesim.__file__).parent.rglob("*.py"))


def test_no_module_uses_assert():
    # python -O drops assert statements, so no check of the program may be one
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(MODULES) > 5 and not found, found


def test_each_kernel_is_bound_on_both_tiers_with_one_numpy_reference():
    # the closing `if _lib is not None: ... else: ...` of _kernels binds the
    # same names on both tiers: each amplitude kernel to _c_<name> and to
    # numpy_<name>, the compiled-only loops to _c_<name> and to None; and
    # every numpy_* function of the module is one of those references
    tree = ast.parse((Path(framesim.__file__).parent / "_kernels.py").read_text(encoding="utf-8"))
    choice = [node for node in tree.body if isinstance(node, ast.If)][-1]
    tiers = []
    for body in (choice.body, choice.orelse):
        bound = {}
        for stmt in body:
            for target in stmt.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                values = (stmt.value.elts if isinstance(stmt.value, ast.Tuple)
                          else [stmt.value] * len(names))
                for name, value in zip(names, values, strict=True):
                    bound[name.id] = value.id if isinstance(value, ast.Name) else value.value
        tiers.append(bound)
    compiled, numpy_tier = tiers
    kernels = {name for name, value in numpy_tier.items() if value is not None}
    assert {"clifford", "scatter", "permute"} <= kernels and set(compiled) == set(numpy_tier)
    assert all(compiled[name] == f"_c_{name}" for name in compiled)
    assert all(numpy_tier[name] == f"numpy_{name}" for name in kernels)
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("numpy_")}
    assert defined == {f"numpy_{name}" for name in kernels}


def test_each_c_export_is_declared_once_in_the_loader():
    # the non-static framesim_* functions that _kernels.c defines are exactly
    # those whose argtypes _kernels._load declares, so that neither side
    # keeps an export the other has retired
    package = Path(framesim.__file__).parent
    source = (package / "_kernels.c").read_text(encoding="utf-8")
    defined = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(framesim_\w+)\s*\(", source,
                         re.MULTILINE)
    tree = ast.parse((package / "_kernels.py").read_text(encoding="utf-8"))
    load = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_load")
    declared = [target.value.attr for node in ast.walk(load) if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Attribute) and target.attr == "argtypes"
                and isinstance(target.value, ast.Attribute)]
    assert len(defined) > 5 and sorted(defined) == sorted(set(declared)) == sorted(declared)


def test_each_simd_clone_has_its_twin_and_the_walk_clones_start_on_a_cache_line():
    # a static *_avx2 function of _kernels.c is the AVX2 clone of the
    # *_generic function with the same name and parameters, and the other
    # way round; the clones that inline the walks of a pass and of a run
    # (pass_*, run_*) start on a cache line, as where their loops fall in
    # the lines changed their speed
    source = (Path(framesim.__file__).parent / "_kernels.c").read_text(encoding="utf-8")
    clones = {}
    for m in re.finditer(r"\b(\w+)_(avx2|generic)\s*\(([^()]*)\)\s*\{", source):
        head = re.split(r"\*/|[};]|#[^\n]*\n", source[:m.start()])[-1]
        if "static" in head:
            clones[m[1], m[2]] = " ".join(m[3].split()), head
    bases = {base for base, _ in clones}
    assert {"ctl_walk", "pass", "run"} <= bases
    for base in sorted(bases):
        assert (base, "avx2") in clones and (base, "generic") in clones, base
        (params, avx2), (twin_params, generic) = clones[base, "avx2"], clones[base, "generic"]
        assert params == twin_params, base
        assert 'target("avx2,fma")' in avx2 and "target" not in generic, base
        if base in ("pass", "run"):
            assert "aligned(64)" in avx2 and "aligned(64)" in generic, base


def test_the_c_gate_codes_follow_the_python_tags():
    # both compiled gate loops read a lowered gate's code as its index in
    # circuit.TAGS, so the C enum of gate codes must list the tags in order
    source = (Path(framesim.__file__).parent / "_kernels.c").read_text(encoding="utf-8")
    (body,) = re.findall(r"\benum\s*\{\s*(G_H\b[^}]*)\}", source)
    assert [name.strip() for name in body.split(",")] == ["G_" + tag for tag in TAGS]
