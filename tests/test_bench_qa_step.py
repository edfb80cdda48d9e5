"""The qa-finetune benchmark workload keeps its own copy of the finetune step
(``QaFinetune.run`` in ``benchmarks/workloads.py``).  This checks that the
copy still computes what ``downstream.finetune_steps`` computes, loss for
loss, so a change to the program's step cannot leave the workload timing an
older one.  Delete it once the workload calls ``finetune_steps`` itself."""

import importlib
from pathlib import Path

import pytest

from vidtext import downstream
from vidtext.cli import FINETUNE_DEFAULTS
from vidtext.pretrain import PretrainHypers, dropout_rng

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
STEPS = 6


def test_benchmark_qa_step_matches_finetune_steps(tmp_path):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))  # its modules import each other by name
        inputs, tracing, workloads = map(importlib.import_module, ("inputs", "tracing", "workloads"))
    files = inputs.generate("qa-finetune", 3, tmp_path, inputs.TINY["qa-finetune"])
    workload = workloads.QaFinetune(files, tmp_path)
    ops = workload.run(workload.setup(), workloads.Budget(ops=STEPS), tracing.NoTrace())
    assert [op.error for op in ops] == [None] * STEPS

    st, seed = workload.setup(), workloads.TRAIN_SEED
    steps = downstream.finetune_steps(
        st.model, "qa", st.optimizer, PretrainHypers(), FINETUNE_DEFAULTS["qa_lambda"],
        st.examples, st.by_id, st.vocab, seed, FINETUNE_DEFAULTS["batch_size"], STEPS,
    )
    dropout = st.model.config.dropout > 0
    losses = [repr(take_step(dropout_rng(seed, step) if dropout else None)) for step, take_step in steps]
    assert [op.value for op in ops] == losses
