"""Every function and method that ``src/vidtext`` defines is reached by the
program, every default it gives a parameter is one that some call changes,
and every model weight gets a gradient above rounding noise.  One small
scenario of ``vidtext`` commands, and the benchmark's three workloads at
their tiny sizes, run in-process under ``sys.setprofile``.  The check fails
on any definition the trace never enters, on any parameter with a default
that no entered call binds to another value, and on any weight whose largest
|gradient| at every ``AdamW.step`` stays at or below ``WEIGHT_FLOOR`` times
the largest of its model, unless it is on the short exempt lists below.  A
value is the default when it is the same object, or of the same type and
equal; an array is always another value.  Code, knobs and weights that only
tests reach belong in ``tests/``."""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import vidtext
from vidtext.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from vidtext.tensor import AdamW

SRC = Path(vidtext.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCHMARK_SEED = 3

# definitions kept although no command enters them, each with its reason
EXEMPT = {
    "encoder.ModelConfig.full_scale": "it records the paper's model size",
    "metrics.Ranking.__len__": "an abstract method of Sequence: Ranking cannot be built without it",
    "tensor.Tensor.__repr__": "display in debuggers and tracebacks",
}

# parameter defaults kept although no call changes them, each with its reason
EXEMPT_PARAMETERS = {
    "downstream.CaptionModel.__init__(max_len)": (
        "it sizes decoder.pos_emb, which is drawn from the model's rng before the other "
        "decoder weights: a constant would re-draw the acceptance test's caption model"
    ),
}

# weights kept although no training step gives them a gradient above the floor,
# each with its reason
EXEMPT_WEIGHTS: dict[str, str] = {}

# a weight's largest |gradient| over its model's largest, at or below which it
# is rounding noise: softmax cancels a bias that shifts all its logits alike
WEIGHT_FLOOR = 1e-12

SMALL_MODEL = [
    "--d", "16", "--cross-heads", "2", "--temporal-heads", "2",
    "--max-frames", "16", "--max-tokens", "12", "--ffn-multiplier", "2",
]
PRETRAIN_TASKS = ("mlm", "mffr", "mnce", "fom", "vsm")
DOWNSTREAM_TASKS = ("retrieval", "qa", "nli", "caption")


def _definitions():
    """(module, qualname, node) of every function and method in ``SRC``; a
    qualname is Python's ``__qualname__`` (``f.<locals>.g`` for a nested one)."""
    out = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((module, prefix + child.name, child))
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "")
    return out


def _defaulted(node) -> dict:
    """Parameter name -> line of each parameter of a ``def`` that has a default."""
    a = node.args
    positional = a.posonlyargs + a.args
    with_default = positional[len(positional) - len(a.defaults):]
    with_default += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {arg.arg: arg.lineno for arg in with_default}


def _functions() -> dict:
    """(module, qualname) -> function of everything ``SRC`` defines with
    ``def`` at module or class level, properties and decorated ones included."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"vidtext.{path.stem}")
        members = list(vars(module).values())
        members += [m for c in members if inspect.isclass(c) for m in vars(c).values()]
        for member in members:
            parts = (member.fget, member.fset) if isinstance(member, property) else (member,)
            for f in parts:
                f = inspect.unwrap(getattr(f, "__func__", f))
                if inspect.isfunction(f) and Path(f.__code__.co_filename).resolve() == path:
                    out[(path.stem, f.__qualname__)] = f
    return out


def _defaults() -> dict:
    """The code object of every function of ``SRC`` that gives a parameter a
    default -> {parameter: (default, "module.qualname(parameter)", "file.py:line")},
    the defaults read from the function objects."""
    functions, out, unread = _functions(), {}, []
    for module, qualname, node in _definitions():
        lines = _defaulted(node)
        f = functions.get((module, qualname))
        if lines and f is None:
            unread.append(f"{module}.{qualname}")
        elif lines:
            params = inspect.signature(f).parameters
            out[f.__code__] = {
                name: (params[name].default, f"{module}.{qualname}({name})", f"{module}.py:{line}")
                for name, line in lines.items()
            }
    assert not unread, f"defaults of nested functions, which this check cannot read: {unread}"
    return out


def _is_default(value, default) -> bool:
    if value is default:
        return True
    if type(value) is not type(default) or isinstance(value, np.ndarray):
        return False
    return bool(value == default)


class _Trace:
    """Collects the code object of every Python frame entered while active,
    and strikes a parameter of ``_defaults()`` off once a call binds it to
    another value than its default.  At each ``AdamW.step`` it records each
    weight's largest |gradient| over the largest of the step's model, and
    keeps each weight name's best ratio in ``reach``."""

    def __init__(self):
        self.codes = set()
        self.unchanged = _defaults()
        self.reach: dict[str, float] = {}

    def _hook(self, frame, event, arg):
        if event != "call":
            return
        self.codes.add(frame.f_code)
        if frame.f_code is AdamW.step.__code__:
            self._weigh(frame.f_locals["self"].params)
        left = self.unchanged.get(frame.f_code)
        if left:
            bound = frame.f_locals  # only the arguments, at a call
            for name in [n for n, (d, *_) in left.items() if not _is_default(bound[n], d)]:
                del left[name]

    def _weigh(self, params) -> None:
        peaks = {
            name: 0.0 if p.grad is None else float(np.abs(p.grad).max(initial=0.0))
            for name, p in params.items()
        }
        top = max(peaks.values(), default=0.0)
        for name, peak in peaks.items():
            self.reach[name] = max(self.reach.get(name, 0.0), peak / top if top > 0 else 0.0)

    def __enter__(self):
        self._outer = sys.getprofile()
        sys.setprofile(self._hook)

    def __exit__(self, *exc):
        sys.setprofile(self._outer)

    def run(self, argv) -> int:
        with self:
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code


def _write_tasks(corpus: Path, root: Path) -> dict:
    """One example per clip for each downstream task, from each clip's first
    subtitle."""
    records = [json.loads(line) for line in corpus.read_text().splitlines()[1:]]
    rows = {task: [] for task in DOWNSTREAM_TASKS}
    for i, rec in enumerate(records):
        sub = rec["subs"][0]
        span = [sub["t0"], sub["t1"]]
        clip = {"clip_id": rec["id"]}
        rows["retrieval"].append({**clip, "query": sub["text"], "span": span})
        answers = ["w000 w001", "w002 w003", "w004 w005", "w006 w007"]
        rows["qa"].append({**clip, "q": sub["text"], "answers": answers, "label": i % 4, "span": span})
        rows["nli"].append({**clip, "hypothesis": sub["text"], "label": ["contradict", "entail"][i % 2]})
        rows["caption"].append({**clip, "moment": span, "caption": " ".join(sub["text"].split()[:3])})
    paths = {}
    for task, task_rows in rows.items():
        paths[task] = root / f"{task}.jsonl"
        paths[task].write_text("".join(json.dumps(r) + "\n" for r in task_rows))
    return paths


def _run_scenario(root: Path, trace: _Trace) -> None:
    def run(*argv, code=EXIT_OK):
        got = trace.run([str(a) for a in argv])
        assert got == code, (argv, got)

    corpus = root / "data" / "corpus.jsonl"
    run("gen-data", "--out", corpus, "--clips", 4, "--seconds", 21, "--fps", 0.6667,
        "--feature-dim", 8, "--vocab-size", 30, "--seed", 1)
    run("gen-data", "--out", root / "data" / "flat.jsonl", "--clips", 2, "--seconds", 9,
        "--topics", 3, "--no-planted")
    tasks = _write_tasks(corpus, root)
    # every option the runs below would leave at its default, set to another value
    config = root / "opts.cfg"
    config.write_text(
        "# a comment\n\nlr = 0.001\nbatch_size = 2\nweight_decay = 0.02\ndropout = 0.2\n"
        "cross_layers = 1\ntemporal_layers = 2\nmargin = 0.2\nlambda_local = 0.02\n"
        "lambda_global = 4.0\nnum_negatives = 4\n"
    )

    pre = root / "pretrain"
    common = ["--corpus", corpus, "--tasks", ",".join(PRETRAIN_TASKS), "--config", config,
              "--checkpoint-every", 3, *SMALL_MODEL]
    run("pretrain", "--out-dir", pre, "--steps", 3, *common)
    run("pretrain", "--out-dir", pre, "--steps", 8, "--resume", pre / "step000003.ckpt", *common)
    # the 8 steps above never draw mffr at seed 0
    run("pretrain", "--corpus", corpus, "--out-dir", root / "mffr", "--tasks", "mffr",
        "--steps", 1, "--batch-size", 2, "--seed", 5, *SMALL_MODEL)
    logs = (pre / "train.log").read_text() + (root / "mffr" / "train.log").read_text()
    drawn = {line.split(", ")[1] for line in logs.splitlines() if not line.startswith("#")}
    assert drawn == set(PRETRAIN_TASKS), f"the scenario's pretrain runs drew only {sorted(drawn)}"

    tuned = ["--seed", 1, "--batch-size", 3, "--weight-decay", 0.02, "--lambda", 0.3,
             "--margin", 0.2, "--lambda-local", 0.02, "--lambda-global", 4.0]
    for task in DOWNSTREAM_TASKS:
        out = root / f"ft-{task}"
        run("finetune", "--task", task, "--data", tasks[task], "--corpus", corpus,
            "--out-dir", out, "--init", pre / "final.ckpt", "--steps", 2, "--lr", 0.001, *tuned)
        run("eval", "--task", task, "--data", tasks[task], "--corpus", corpus,
            "--checkpoint", out / "final.ckpt", "--out", root / f"report-{task}.json", "--k", "1,2",
            "--tiou", 0.5, "--nms", 0.3, "--spans-per-clip", 3)
    run("finetune", "--task", "nli", "--data", tasks["nli"], "--corpus", corpus,
        "--out-dir", root / "scratch-nli", "--from-scratch", "--steps", 1)
    run("inspect-attention", "--checkpoint", pre / "final.ckpt", "--corpus", corpus,
        "--clip-id", "clip0000", "--out", root / "attn")

    # error paths: an unknown flag, and a corpus time that is a JSON true
    run("gen-data", "--nope", code=EXIT_USAGE)
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[1])
    record["frames"][0]["t0"] = True
    lines[1] = json.dumps(record)
    bad = corpus.with_name("bad.jsonl")
    bad.write_text("\n".join(lines) + "\n")
    run("pretrain", "--corpus", bad, "--out-dir", root / "bad", "--steps", 1, code=EXIT_DATA)


def _run_benchmark(root: Path, trace: _Trace) -> None:
    """Each benchmark workload at its tiny size, input generation included, as
    the benchmark runs it untraced: set-up, ops, report.  The benchmark calls
    the program too, and counts as a caller by what it runs.  ``Workload.run``
    catches what an op raises, so an op that records an error fails here."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))  # its modules import each other by name
        inputs, tracing, workloads = map(importlib.import_module, ("inputs", "tracing", "workloads"))
    failed = []
    for name, workload_type in workloads.WORKLOADS.items():
        sizes, work = inputs.TINY[name], root / name
        work.mkdir()
        with trace:
            files = inputs.generate(name, BENCHMARK_SEED, work, sizes)
            workload = workload_type(files, work)
            state = workload.setup()
            ops = workload.run(state, workloads.Budget(ops=sizes.trace_ops), tracing.NoTrace())
            workload.report(state, ops)
        failed += [f"{name} {op.kind}: {op.error}" for op in ops if op.error]
    assert not failed, "benchmark ops failed:\n  " + "\n  ".join(failed)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    trace = _Trace()
    _run_scenario(tmp_path_factory.mktemp("scenario"), trace)
    _run_benchmark(tmp_path_factory.mktemp("benchmark"), trace)
    return trace


def test_every_src_function_is_reached_by_the_program(trace):
    reached = {(Path(code.co_filename).resolve(), code.co_qualname) for code in trace.codes}
    unreached = [
        f"{module}.{qualname} ({module}.py:{node.lineno})"
        for module, qualname, node in _definitions()
        if (SRC / f"{module}.py", qualname) not in reached
        and f"{module}.{qualname}" not in EXEMPT
    ]
    assert not unreached, (
        f"{len(unreached)} functions of src/vidtext that neither the scenario nor the "
        "benchmark enters:\n  " + "\n  ".join(unreached)
    )


def test_every_src_default_is_changed_by_a_call(trace):
    found = [
        f"{key} ({where})"
        for code, left in trace.unchanged.items()
        if code in trace.codes  # an unreached function fails the test above
        for _, key, where in left.values()
        if key not in EXEMPT_PARAMETERS
    ]
    assert not found, (
        f"{len(found)} parameters of src/vidtext whose default no call of the scenario "
        "or the benchmark changes:\n  " + "\n  ".join(sorted(found))
    )


def test_every_weight_gets_a_gradient_above_rounding(trace):
    assert trace.reach, "no AdamW step ran"
    assert sorted(set(EXEMPT_WEIGHTS) - set(trace.reach)) == []
    dead = [
        f"{name} (best {ratio:.2g})"
        for name, ratio in trace.reach.items()
        if ratio <= WEIGHT_FLOOR and name not in EXEMPT_WEIGHTS
    ]
    assert not dead, (
        f"{len(dead)} weights whose largest gradient at every AdamW step of the scenario "
        f"or the benchmark is at most {WEIGHT_FLOOR:g} of their model's largest:\n  "
        + "\n  ".join(dead)
    )


def test_every_exempt_name_is_defined():
    defined = {f"{module}.{qualname}": node for module, qualname, node in _definitions()}
    assert sorted(set(EXEMPT) - set(defined)) == []
    for key in EXEMPT_PARAMETERS:
        function, _, param = key[:-1].partition("(")
        assert function in defined and param in _defaulted(defined[function]), (
            f"{key} names no parameter with a default"
        )
