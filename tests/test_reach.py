"""Every function and method that ``src/vidtext`` defines is reached by the
program: one small scenario of ``vidtext`` commands runs in-process under
``sys.setprofile``, and the check fails on any definition the trace never
enters, unless the benchmark names it (it calls the program too) or it is
on the short exempt list below.  Code that only tests reach belongs in
``tests/``."""

import ast
import json
import sys
from pathlib import Path

import vidtext
from vidtext.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

SRC = Path(vidtext.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# definitions kept although no command enters them, each with its reason
EXEMPT = {
    "encoder.ModelConfig.full_scale": "it records the paper's model size",
    "metrics.Ranking.__len__": "an abstract method of Sequence: Ranking cannot be built without it",
    "tensor.Tensor.__repr__": "display in debuggers and tracebacks",
}

SMALL_MODEL = [
    "--d", "16", "--cross-heads", "2", "--temporal-heads", "2",
    "--max-frames", "16", "--max-tokens", "12", "--ffn-multiplier", "2",
]
PRETRAIN_TASKS = ("mlm", "mffr", "mnce", "fom", "vsm")
DOWNSTREAM_TASKS = ("retrieval", "qa", "nli", "caption")


def _definitions():
    """(module, qualname, line) of every function and method in ``SRC``; a
    qualname is Python's ``__qualname__`` (``f.<locals>.g`` for a nested one)."""
    out = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((module, prefix + child.name, child.lineno))
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "")
    return out


def _benchmark_names():
    """The ``module.name`` of every program function the benchmark names: an
    attribute of an imported ``vidtext`` module, a name imported from one, or
    a ``(module, "name", ...)`` entry of the traced run's wrapper list."""
    names = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # local name -> "module" or "module.name" in vidtext
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vidtext"):
                module = node.module.partition(".")[2]
                for a in node.names:
                    imported[a.asname or a.name] = f"{module}.{a.name}" if module else a.name
        names.update(v for v in imported.values() if "." in v)

        def dotted(node):
            if isinstance(node, ast.Name):
                return imported.get(node.id)
            if isinstance(node, ast.Attribute):
                owner = dotted(node.value)
                return owner and f"{owner}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(dotted(node))
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                owner, attr = dotted(node.elts[0]), node.elts[1]
                if owner and isinstance(attr, ast.Constant):
                    names.add(f"{owner}.{attr.value}")
    return names


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


class _Trace:
    """Collects the code object of every Python frame entered while active."""

    def __init__(self):
        self.codes = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def run(self, argv) -> int:
        outer = sys.getprofile()
        sys.setprofile(self._hook)
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        finally:
            sys.setprofile(outer)


def _run_scenario(root: Path, trace: _Trace) -> None:
    def run(*argv, code=EXIT_OK):
        got = trace.run([str(a) for a in argv])
        assert got == code, (argv, got)

    corpus = root / "data" / "corpus.jsonl"
    run("gen-data", "--out", corpus, "--clips", 4, "--seconds", 21, "--fps", 0.6667,
        "--feature-dim", 8, "--vocab-size", 30, "--seed", 1)
    tasks = _write_tasks(corpus, root)
    config = root / "opts.cfg"
    config.write_text("# a comment\n\nlr = 0.001\nbatch_size = 2\n")

    pre = root / "pretrain"
    common = ["--corpus", corpus, "--tasks", ",".join(PRETRAIN_TASKS), "--config", config,
              "--checkpoint-every", 3, *SMALL_MODEL]
    run("pretrain", "--out-dir", pre, "--steps", 3, *common)
    run("pretrain", "--out-dir", pre, "--steps", 8, "--resume", pre / "step000003.ckpt", *common)
    # the 8 steps above never draw mffr at seed 0
    run("pretrain", "--corpus", corpus, "--out-dir", root / "mffr", "--tasks", "mffr",
        "--steps", 1, "--batch-size", 2, *SMALL_MODEL)
    logs = (pre / "train.log").read_text() + (root / "mffr" / "train.log").read_text()
    drawn = {line.split(", ")[1] for line in logs.splitlines() if not line.startswith("#")}
    assert drawn == set(PRETRAIN_TASKS), f"the scenario's pretrain runs drew only {sorted(drawn)}"

    for task in DOWNSTREAM_TASKS:
        out = root / f"ft-{task}"
        run("finetune", "--task", task, "--data", tasks[task], "--corpus", corpus,
            "--out-dir", out, "--init", pre / "final.ckpt", "--steps", 2, "--lr", 0.001)
        run("eval", "--task", task, "--data", tasks[task], "--corpus", corpus,
            "--checkpoint", out / "final.ckpt", "--out", root / f"report-{task}.json", "--k", "1,2")
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


def test_every_src_function_is_reached_by_the_program(tmp_path):
    trace = _Trace()
    _run_scenario(tmp_path, trace)
    reached = {
        (Path(code.co_filename).resolve(), code.co_qualname) for code in trace.codes
    }
    benchmark = _benchmark_names()
    unreached = [
        f"{module}.{qualname} ({module}.py:{line})"
        for module, qualname, line in _definitions()
        if (SRC / f"{module}.py", qualname) not in reached
        and f"{module}.{qualname}" not in benchmark
        and f"{module}.{qualname}" not in EXEMPT
    ]
    assert not unreached, (
        f"{len(unreached)} functions of src/vidtext that no command of the scenario enters "
        "and the benchmark does not name:\n  " + "\n  ".join(unreached)
    )


def test_every_exempt_name_is_defined():
    defined = {f"{module}.{qualname}" for module, qualname, _ in _definitions()}
    assert sorted(set(EXEMPT) - defined) == []
