"""Guards on the package source itself."""

import ast
import glob
import os

from tsal.cli import SETTINGS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "tsal")

# perfbench's tensor.activations.busy_s metric traces tanh_act (and names
# tanh_backward beside it), and acceptance criterion 4 checks tanh_act's
# derivative by finite differences, so deleting tanh_act changes that
# criterion as well as the metric; both stay until each is re-pointed
USED_OUTSIDE_THE_PACKAGE = {"tanh_act", "tanh_backward"}
# perfbench/workloads.py builds its datasets with SyntheticConfig's keyword
# defaults, so they stay until the benchmark generates through the CLI
DEFAULTS_USED_OUTSIDE_THE_PACKAGE = {"SyntheticConfig"}


def test_every_public_definition_is_used_in_the_package():
    """A public top-level function or class that no other code in src/tsal
    references is test-only code: it belongs in the tests, not the package."""
    trees = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read()))

    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }

    used = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)  # a definition does not use itself
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)

    unused = sorted(defined - used - USED_OUTSIDE_THE_PACKAGE)
    assert unused == [], f"defined in src/tsal but used only outside it: {unused}"


def test_only_data_reads_map_files():
    """``data.read_maps`` is the one reader of a video's map files, so no
    module but ``data`` names ``load_map``: a second copy of the loop that
    loads each frame's file cannot grow back elsewhere."""
    readers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) == "data.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        readers += [
            f"{os.path.basename(path)} line {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "load_map"
            or isinstance(node, ast.Attribute) and node.attr == "load_map"
        ]
    assert readers == [], f"load_map named outside data.py: {readers}"


def test_only_map_paths_finds_map_files():
    """``data.map_paths`` is the one finder of a video's map files: it checks
    that each exists once, before any is read. So no other function calls
    ``os.path.isfile`` but ``load_video``, on the fixation file, and a second
    finder, with its own stat of every map file, cannot grow back."""
    callers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        callers += [
            (os.path.basename(path), function)
            for node, function in _in_functions(tree)
            if isinstance(node, ast.Attribute) and node.attr == "isfile"
        ]
    assert sorted(callers) == [("data.py", "load_video"), ("data.py", "map_paths")], callers


def test_only_train_encodes_binary_records():
    """``train.py`` holds the one definition of the checkpoint layout, its
    header struct and ``_record_head``, so no other module imports
    ``struct`` or ``zlib``: a second checkpoint encoder or decoder cannot
    grow elsewhere."""
    importers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) == "train.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            importers += [
                f"{os.path.basename(path)} line {node.lineno}: {module}"
                for module in modules
                if module in ("struct", "zlib")
            ]
    assert importers == [], f"struct or zlib imported outside train.py: {importers}"


POOL_NAMES = {"multiprocessing", "concurrent", "ProcessPoolExecutor", "sched_getaffinity", "fork"}


def test_only_worker_map_starts_processes():
    """``data.worker_map`` is the one place that starts processes, for
    ``generate``, ``predict`` and ``evaluate`` alike. So ``data.py`` is the one
    importer of ``multiprocessing`` and ``concurrent.futures``, inside that
    function, so that ``train`` does not load them; no other function names
    ``ProcessPoolExecutor`` or ``sched_getaffinity``; and the ``"fork"``
    start method is named once. ``metrics`` stays free of processes. Each
    command makes one ``worker_map`` call: ``evaluate`` reads its fixations
    in its own process and scores in one pass.
    perfbench's traced set-up metric, ``data.generate_synthetic.busy_s``,
    times the parent's call, which waits for every worker, so it still sees
    everything it measures."""
    importers, forks, outside, callers = set(), [], [], []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, function in _in_functions(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]}
            elif isinstance(node, ast.Constant):
                names = {node.value}
            else:
                names = {getattr(node, "id", getattr(node, "attr", None))}
            where = f"{module} line {node.lineno} in {function}" if names & POOL_NAMES else ""
            if names & {"multiprocessing", "concurrent"}:
                importers.add(module)
            if "fork" in names:
                forks.append(where)
            if where and (module, function) != ("data.py", "worker_map"):
                outside.append(where)
            if "worker_map" in names:
                callers.append((module, function))
    assert importers == {"data.py"}, f"process pools imported in {sorted(importers)}"
    assert outside == [], f"process pools started outside data.worker_map: {outside}"
    assert len(forks) == 1, f'the "fork" start method named in {len(forks)} places: {forks}'
    want = [("cli.py", "cmd_evaluate"), ("cli.py", "cmd_predict"), ("data.py", "generate_synthetic")]
    assert sorted(callers) == want, f"worker_map named at {callers}"


def test_only_the_blas_helper_imports_ctypes():
    """``data._blas_threads`` is the one function that reaches into a native
    library: it finds the loaded OpenBLAS and its thread-count calls, which
    ``worker_map`` uses to share the CPUs between its workers. So no other
    function imports ``ctypes``, and no second native binding can grow."""
    importers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, function in _in_functions(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            importers += [
                (module, function, node.lineno) for name in names if name.split(".")[0] == "ctypes"
            ]
    places = [(module, function) for module, function, _ in importers]
    assert places == [("data.py", "_blas_threads")], f"ctypes imported at {importers}"


def test_only_publish_renames_outputs_into_place():
    """``data.publish`` is the one way an output reaches its path: a temp
    file or directory beside it, given the umask's mode, then renamed onto
    it. So no other function calls ``tempfile.mkstemp``,
    ``tempfile.mkdtemp``, ``os.replace`` or ``os.umask``, and a second
    temp-and-rename copy cannot grow back."""
    calls = {("tempfile", "mkstemp"), ("tempfile", "mkdtemp"), ("os", "replace"), ("os", "umask")}
    callers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)
        callers += [
            f"{module} line {node.lineno} in {function}: {node.value.id}.{node.attr}"
            for node, function in _in_functions(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in calls
            and (module, function) != ("data.py", "publish")
        ]
        callers += [
            f"{module} line {node.lineno}: from {node.module} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if (node.module, alias.name) in calls
        ]
    assert callers == [], f"a temp-and-rename step outside data.publish: {callers}"


def test_only_check_outputs_compares_output_paths():
    """``cli._check_outputs`` is the one file-output rule of ``train`` and
    ``evaluate``: it refuses an output that names a directory, another output
    or a file the command reads, at one moment, with one message per fact. So
    no other function in cli.py calls ``os.stat`` or ``os.path.realpath``, and
    a second output rule cannot grow back beside it."""
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = [
        f"line {node.lineno} in {function}: {node.attr}"
        for node, function in _in_functions(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("stat", "realpath")
        and function != "_check_outputs"
    ]
    assert callers == [], f"an output path compared outside cli._check_outputs: {callers}"


def test_tensor_allocations_name_their_dtype():
    """np.zeros, np.empty and np.ones default to float64, so one such call
    without ``dtype=`` in tensor.py silently promotes a float32 inference
    step back to float64 and float64 speed."""
    with open(os.path.join(SRC, "tensor.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    untyped = [
        f"line {node.lineno}: np.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in ("zeros", "empty", "ones")
        and not any(kw.arg == "dtype" for kw in node.keywords)
    ]
    assert untyped == [], f"allocations in tensor.py without dtype=: {untyped}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_in_the_package():
    """A dataclass field that no code in src/tsal reads is carried for
    nobody: it is written, checked and kept alive, and never used."""
    trees = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read()))

    fields = {
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert unread == [], f"dataclass fields no code in src/tsal reads: {unread}"


def test_no_dataclass_repeats_a_settings_default():
    """Each setting's default lives once, in ``cli.SETTINGS``: a dataclass
    field named like a settings key and given a default would repeat it,
    and the two could drift apart."""
    keys = {key for table in SETTINGS.values() for key in table}
    repeated = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        repeated += [
            f"{cls.name}.{stmt.target.id}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and _is_dataclass(cls)
            and cls.name not in DEFAULTS_USED_OUTSIDE_THE_PACKAGE
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.value is not None
            and stmt.target.id in keys
        ]
    assert repeated == [], f"dataclass fields that repeat a cli.SETTINGS default: {repeated}"


def _in_functions(node: ast.AST, function: str | None = None):
    """Each node under ``node`` with the name of the function that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _in_functions(child, child.name)
            continue
        yield child, function
        yield from _in_functions(child, function)


STEP_FUNCTIONS = {"conv_block_forward", "convlstm_step"}


def _compares_a_variant(node: ast.AST) -> bool:
    """A comparison with a model's ``.variant``, a variant constant or a variant name."""
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Attribute) and side.attr in ("variant", "CONV_ONLY", "CONV_LSTM")
        or isinstance(side, ast.Name) and side.id in ("CONV_ONLY", "CONV_LSTM")
        or isinstance(side, ast.Constant) and side.value in ("conv", "convlstm")
        for side in [node.left, *node.comparators]
    )


def test_one_table_picks_the_step():
    """Both variants step as ``(x, state, model) -> (y, state, step cache)``, so
    ``model.step_function`` is the one place that picks a variant's step: no
    other function in src/tsal names ``conv_block_forward`` or
    ``convlstm_step``, cli.py names neither nor ``CONV_ONLY`` and compares
    nothing with a variant, and neither do ``forward_sequence`` and
    ``backward_sequence``. A second copy of the choice cannot grow back."""
    found = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node, function in _in_functions(tree):
            # a name, an attribute, or an imported name (ast.alias)
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            where = f"{module} line {getattr(node, 'lineno', '?')} in {function}"
            if name in STEP_FUNCTIONS and function != "step_function":
                found.append(f"{where}: {name}")
            elif module == "cli.py" and name == "CONV_ONLY":
                found.append(f"{where}: {name}")
            if _compares_a_variant(node) and (
                module == "cli.py" or function in ("forward_sequence", "backward_sequence")
            ):
                found.append(f"{where}: compares a variant")
    assert found == [], f"a step picked outside model.step_function: {found}"


def test_only_named_parameters_names_lstm_tensors():
    """``AdaptationModel.named_parameters`` splits the stacked
    ``input.weights``, ``hidden.weights`` and ``input.bias`` arrays into the
    per-gate ``lstm.*`` row views for the optimizer, the checkpoint and the
    gradients alike, so no other function builds a string that starts with
    ``lstm.``: a second copy of the gate naming cannot grow back. An
    f-string's leading text is such a string too."""
    builders = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        builders += [
            f"{os.path.basename(path)} line {node.lineno} in {function}"
            for node, function in _in_functions(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("lstm.")
            and function != "named_parameters"
        ]
    assert builders == [], f"an 'lstm.' name built outside named_parameters: {builders}"


def test_arrays_are_not_wrapped_in_classes():
    """A convolution is its plain weights (and bias) arrays, and a model is
    one dict of them, so tensor.py defines no class and no module imports
    ``dataclasses.replace``, which only a typed holder of arrays would need
    to copy itself with one field swapped."""
    found = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and module == "tensor.py":
                found.append(f"{module} line {node.lineno}: class {node.name}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found += [
                    f"{module} line {node.lineno}: dataclasses.replace"
                    for alias in node.names
                    if alias.name == "replace"
                ]
            elif isinstance(node, ast.Attribute) and node.attr == "replace":
                if isinstance(node.value, ast.Name) and node.value.id == "dataclasses":
                    found.append(f"{module} line {node.lineno}: dataclasses.replace")
    assert found == [], f"a typed holder of arrays: {found}"


def _divides_by_len(node: ast.AST) -> bool:
    divisor = node.right if isinstance(node, ast.BinOp) else getattr(node, "value", None)
    return (
        isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
        and isinstance(divisor, ast.Call)
        and isinstance(divisor.func, ast.Name)
        and divisor.func.id == "len"
    )


def test_only_mean_averages():
    """``metrics._mean`` is the one averaging rule: it makes each video's
    row from its frames' scores and each group's average from its members'
    rows. No other function divides by a ``len(...)`` call, so a second
    copy of the rule, with its own summation order or its own empty case,
    cannot grow back."""
    dividers = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)
        dividers += [
            f"{module} line {node.lineno} in {function}"
            for node, function in _in_functions(tree)
            if _divides_by_len(node) and (module, function) != ("metrics.py", "_mean")
        ]
    assert dividers == [], f"a division by len(...) outside metrics._mean: {dividers}"


def test_only_dot_multiplies_vectors_in_metrics():
    """OpenBLAS splits a long dot product over threads, which moves its low
    bits with the thread count, so ``metrics._dot`` is the one function in
    metrics.py that calls a BLAS product: no other uses ``@`` or ``.dot``,
    and a score cannot come to depend on the thread count again."""
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    products = [
        f"line {node.lineno} in {function}"
        for node, function in _in_functions(tree)
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute)
            and node.attr == "dot"
        )
        and function != "_dot"
    ]
    assert products == [], f"a BLAS product in metrics.py outside _dot: {products}"


def test_only_negatives_samples_the_shuffled_auc_pool():
    """``metrics._negatives`` is the one sampling rule of shuffled AUC: it
    draws each frame's negatives from the pool, which ``evaluate_video``
    then hands to ``shuffled_auc``, so a sample is drawn once. No other
    function in metrics.py names ``default_rng`` or calls ``.choice``, and
    a second copy of the rule cannot grow back in either caller."""
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    samplers = [
        f"line {node.lineno} in {function}: {node.attr}"
        for node, function in _in_functions(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("default_rng", "choice")
        and function != "_negatives"
    ]
    assert samplers == [], f"the shuffled-AUC pool sampled outside _negatives: {samplers}"


def test_metrics_take_means_as_sum_over_size():
    """NSS and CC take each mean as ``sum / size`` and NSS its standard
    deviation through np.std's own steps, which give the same bits without
    the Python wrappers of ``mean``, ``std`` and ``var`` (about 25 us a
    frame for ``std`` alone). Because the bits are the same, no score test
    can see a wrapper put back, so no code in metrics.py names one."""
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    wrappers = [
        f"line {node.lineno} in {function}: {node.attr}"
        for node, function in _in_functions(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("mean", "std", "var", "average")
    ]
    assert wrappers == [], f"a NumPy mean or deviation wrapper in metrics.py: {wrappers}"


def test_evaluate_video_consumes_one_stream():
    """``evaluate_video`` takes each frame's ``(map, fixations, gt)`` from the
    one iterable it is given, which ``cli._in_blocks`` builds and aligns. So
    no function in metrics.py calls ``iter`` or ``next``, and metrics.py does
    not import ``itertools``: a second reconciler of parallel per-frame
    streams, with its own end-of-stream and length rules, cannot grow back."""
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = [
        f"line {node.lineno} in {function}: {node.func.id}"
        for node, function in _in_functions(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("iter", "next")
    ]
    found += [
        f"line {node.lineno}: import itertools"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "itertools" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "itertools"
    ]
    assert found == [], f"metrics.py reconciles parallel streams: {found}"


METRIC_FUNCTIONS = ("auc_judd", "shuffled_auc", "nss", "cc", "sim")


def test_evaluate_video_calls_every_metric_on_every_frame():
    """Each metric returns None where it is undefined, so ``evaluate_video``
    calls each of the five once, on every frame, and keeps the values that
    are not None: no call to a metric there sits under an ``if``, a
    conditional expression or an ``and``/``or``, and a second copy of a
    metric's undefined case, as a guard of its own, cannot grow back."""
    with open(os.path.join(SRC, "metrics.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (function,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "evaluate_video"
    ]

    def metric_calls(node: ast.AST) -> list[ast.Call]:
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in METRIC_FUNCTIONS
        ]

    assert sorted(call.func.id for call in metric_calls(function)) == sorted(METRIC_FUNCTIONS)
    guarded = {
        f"line {call.lineno}: {call.func.id}"
        for branch in ast.walk(function)
        if isinstance(branch, (ast.If, ast.IfExp, ast.BoolOp))
        for call in metric_calls(branch)
    }
    assert guarded == set(), f"a metric called under a condition in evaluate_video: {guarded}"


def test_no_except_catches_python_type_faults():
    """Every JSON input's shape is checked by name, member by member, so no
    ``except`` in the package names ``AttributeError``, ``KeyError`` or
    ``TypeError``: catching one would turn a payload of the wrong shape into
    an ``ERROR`` line that carries Python's own exception text."""
    caught = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught += [
                    f"{os.path.basename(path)} line {node.lineno}: {name}"
                    for name in sorted(names & {"AttributeError", "KeyError", "TypeError"})
                ]
    assert caught == [], f"an except catches a Python type fault: {caught}"
