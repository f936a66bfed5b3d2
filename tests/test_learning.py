"""The methods learn, and the accuracy matrix can tell them apart.

Every other test runs the default config or a smaller one, where every method
scores chance; the pinned hashes would pin a model that had stopped learning
as readily as one that learns. This runs InCLoRA and ELLA (lambda 1) on 4
tasks at 512 samples per class and learning rate 0.01, where a task trained
alone is learned and ELLA forgets less than InCLoRA.

Both runs share one ``SoloRuns``: a solo run never adds the overlap penalty
and neither method is gated, so the two methods' solo runs are the same.
Accuracy is task-aware (the argmax over the task's own classes), from models
rebuilt out of the runs' logs: the base plus each merged update.
"""

import dataclasses

import numpy as np

import loragate.harness as harness
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream

SEED = 42
# measured at seed 42: solo mean 0.828, InCLoRA 0.406, ELLA 0.633 (seed 43:
# 0.771, 0.360, 0.580); the margins sit well below both seeds
SOLO_MEAN_FLOOR = 0.65
ELLA_LEAD_FLOOR = 0.10


def task_aware_accuracy(model, stream, task_id: int, classes_per_task: int) -> float:
    tokens, labels = stream.fetch(task_id, "test")
    lo = task_id * classes_per_task
    logits = model.forward(tokens).data[:, lo:lo + classes_per_task]
    return float(np.mean(logits.argmax(axis=1) + lo == labels))


def merged_model(stream, config, logs):
    """The base model with every log's final updates merged, in order."""
    model = harness._base_model(stream, config, SEED)
    for log in logs:
        harness._merge_updates(model, log.merged, config, None)
    return model


def test_ella_forgets_less_than_inclora_on_a_learnable_stream():
    inclora = ExperimentConfig(method=Method.INCLORA, samples_per_class=512,
                               learning_rate=0.01)
    ella = dataclasses.replace(inclora, method=Method.ELLA, ella_lambda=[1.0])
    stream = generate_task_stream(inclora.data_seed, inclora.n_tasks,
                                  inclora.samples_per_class, inclora.difficulty,
                                  inclora.classes_per_task, inclora.seq_len,
                                  inclora.vocab_size)
    runs = harness.SoloRuns(stream, inclora, SEED)
    results = {cfg.method: harness.run_stream(stream, cfg, SEED, isolated=runs)
               for cfg in (inclora, ella)}
    np.testing.assert_array_equal(results[Method.INCLORA].matrix.grid[0],
                                  results[Method.ELLA].matrix.grid[0])

    tasks, cpt = range(inclora.n_tasks), inclora.classes_per_task
    solo_mean = np.mean([
        task_aware_accuracy(merged_model(stream, inclora, [runs[t].log]), stream, t, cpt)
        for t in tasks])
    final = {}
    for cfg in (inclora, ella):
        model = merged_model(stream, cfg, results[cfg.method].logs)
        final[cfg.method] = np.mean([task_aware_accuracy(model, stream, t, cpt)
                                     for t in tasks])
    lead = final[Method.ELLA] - final[Method.INCLORA]
    assert solo_mean >= SOLO_MEAN_FLOOR, (solo_mean, final)
    assert lead >= ELLA_LEAD_FLOOR, (solo_mean, final)
