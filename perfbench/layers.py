"""Where the traced run wraps tima, and how its spans become per-layer metrics.

Span names are ``<layer>.<function>``, with layers named after the package's
modules: tensor, model, losses, attacks, harness, data and cli. Metric names
are ``<span>.<kind>``; ``layer_metrics`` says how each kind is computed.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, Optional, Sequence

import numpy as np

from tima import attacks, data, harness, losses, model, tensor

from tracing import Tracer, repeat_frac, self_times, unique_frac

LOSS_TERMS = ("tam_loss", "takd_loss", "mhe_loss", "iakd_loss")

# (name, unit, better) of every metric the traced run prints, in print order.
PER_LAYER = (
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.self_ms", "ms", "lower"),
    ("tensor.backward.nodes", "count", "lower"),
    ("tensor.errors", "count", "lower"),
    ("model.encode_images.calls", "count", "lower"),
    ("model.encode_images.rows", "count", "lower"),
    ("model.encode_images.self_ms", "ms", "lower"),
    ("model.encode_classes.calls", "count", "lower"),
    ("model.encode_classes.self_ms", "ms", "lower"),
    ("model.teacher_encode.rows", "count", "lower"),
    ("model.teacher_encode.unique_frac", "ratio", "higher"),
    ("model.save_model.ms", "ms", "lower"),
    ("model.save_model.bytes", "bytes", "lower"),
    ("model.load_model.ms", "ms", "lower"),
    ("model.load_model.bytes", "bytes", "lower"),
    ("model.errors", "count", "lower"),
    ("losses.tima_loss.calls", "count", "lower"),
    ("losses.tima_loss.self_ms", "ms", "lower"),
    ("losses.tam_loss.self_ms", "ms", "lower"),
    ("losses.takd_loss.self_ms", "ms", "lower"),
    ("losses.mhe_loss.self_ms", "ms", "lower"),
    ("losses.iakd_loss.self_ms", "ms", "lower"),
    ("losses.adaptive_margin.self_ms", "ms", "lower"),
    ("losses.cosine_sim_matrix.calls", "count", "lower"),
    ("losses.cosine_sim_matrix.self_ms", "ms", "lower"),
    ("losses.tam_loss.fwd_bwd_us", "us", "lower"),
    ("losses.takd_loss.fwd_bwd_us", "us", "lower"),
    ("losses.mhe_loss.fwd_bwd_us", "us", "lower"),
    ("losses.iakd_loss.fwd_bwd_us", "us", "lower"),
    ("losses.errors", "count", "lower"),
    ("attacks.pgd_attack.calls", "count", "lower"),
    ("attacks.pgd_attack.self_ms", "ms", "lower"),
    ("attacks.pgd_attack.repeat_frac", "ratio", "lower"),
    ("attacks.pgd_steps.steps", "count", "lower"),
    ("attacks.pgd_steps.self_ms", "ms", "lower"),
    ("attacks.per_sample_ce.calls", "count", "lower"),
    ("attacks.per_sample_ce.self_ms", "ms", "lower"),
    ("attacks.robust_accuracy.self_ms", "ms", "lower"),
    ("attacks.errors", "count", "lower"),
    ("harness.optimizer_step.calls", "count", "lower"),
    ("harness.optimizer_step.self_ms", "ms", "lower"),
    ("harness.pretrain_clean.self_ms", "ms", "lower"),
    ("harness.finetune.self_ms", "ms", "lower"),
    ("harness.evaluate.self_ms", "ms", "lower"),
    ("harness.eval_clean.self_ms", "ms", "lower"),
    ("harness.superclass_confusion.self_ms", "ms", "lower"),
    ("harness.export_similarity_matrices.self_ms", "ms", "lower"),
    ("harness.write_report.ms", "ms", "lower"),
    ("harness.write_report.bytes", "bytes", "lower"),
    ("harness.errors", "count", "lower"),
    ("data.generate_synthetic.ms", "ms", "lower"),
    ("data.save_dataset.ms", "ms", "lower"),
    ("data.save_dataset.bytes", "bytes", "lower"),
    ("data.load_dataset.ms", "ms", "lower"),
    ("data.load_dataset.bytes", "bytes", "lower"),
    ("data.errors", "count", "lower"),
    ("cli.gen-data.ms", "ms", "lower"),
    ("cli.pretrain.ms", "ms", "lower"),
    ("cli.finetune.ms", "ms", "lower"),
    ("cli.eval.ms", "ms", "lower"),
    ("cli.sweep.ms", "ms", "lower"),
    ("cli.errors", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class TimaTrace:
    """Wraps the functions each tima layer exposes, and keeps the first
    fine-tuning batch it sees for the loss-term probe."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.loss_batch: Optional[tuple] = None

    def install(self) -> None:
        t = self.tracer
        modules = [m for name, m in sys.modules.items()
                   if name == "tima" or name.startswith("tima.")]

        def fn(original, name, probe=None):
            t.patch(modules, original, name, probe)

        def method(cls, attr, name, probe=None):
            t.patch([cls], vars(cls)[attr], name, probe)

        def io_fn(original, name, index, arg):
            fn(original, name, lambda a, k, r: t.add(
                f"{name}.bytes", os.path.getsize(_arg(a, k, index, arg))))

        fn(tensor.backward, "tensor.backward", self._count_nodes)
        method(model.DualEncoder, "encode_images", "model.encode_images",
               lambda a, k, r: t.add("model.encode_images.rows", r.shape[0]))
        method(model.DualEncoder, "encode_classes", "model.encode_classes")
        method(model.TeacherSnapshot, "encode_images", "model.teacher_encode",
               self._note_teacher_rows)
        io_fn(model.save_model, "model.save_model", 1, "path")
        io_fn(model.load_model, "model.load_model", 0, "path")
        fn(losses.tima_loss, "losses.tima_loss", self._capture_loss_batch)
        for term in LOSS_TERMS + ("adaptive_margin", "cosine_sim_matrix"):
            fn(getattr(losses, term), f"losses.{term}")
        fn(attacks.pgd_attack, "attacks.pgd_attack", self._note_attack)
        fn(attacks.pgd_steps, "attacks.pgd_steps",
           lambda a, k, r: t.add("attacks.pgd_steps.steps", _arg(a, k, 7, "steps")))
        fn(attacks.per_sample_ce, "attacks.per_sample_ce")
        fn(attacks.robust_accuracy, "attacks.robust_accuracy")
        method(harness._Momentum, "step", "harness.optimizer_step")
        for stage in ("pretrain_clean", "finetune", "evaluate", "eval_clean",
                      "superclass_confusion", "export_similarity_matrices"):
            fn(getattr(harness, stage), f"harness.{stage}")
        io_fn(harness.write_report, "harness.write_report", 1, "path")
        fn(data.generate_synthetic, "data.generate_synthetic")
        io_fn(data.save_dataset, "data.save_dataset", 1, "path")
        io_fn(data.load_dataset, "data.load_dataset", 0, "path")

    # -- probes: run after the wrapped call returns ------------------------------

    def _count_nodes(self, args, kwargs, result) -> None:
        loss = _arg(args, kwargs, 0, "loss")
        seen = {id(loss)}
        stack = [loss]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        self.tracer.add("tensor.backward.nodes", len(seen))

    def _note_teacher_rows(self, args, kwargs, result) -> None:
        x = np.ascontiguousarray(_arg(args, kwargs, 1, "x"), dtype=np.float64)
        self.tracer.add("model.teacher_encode.rows", x.shape[0])
        for row in x:
            self.tracer.note("model.teacher_encode", hashlib.sha1(row.tobytes()).digest())

    def _note_attack(self, args, kwargs, result) -> None:
        encoder, text, x, y, cfg = (_arg(args, kwargs, i, n) for i, n in enumerate(
            ("encoder", "text_matrix", "x", "y", "cfg")))
        h = hashlib.sha1(encoder.weights_blob())
        for a in (text, x, y):
            a = np.ascontiguousarray(a)
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
        h.update(repr(cfg).encode())
        self.tracer.note("attacks.pgd_attack", h.digest())

    def _capture_loss_batch(self, args, kwargs, result) -> None:
        if self.loss_batch is None:
            student, teacher, x_clean, x_adv, y, w = (_arg(args, kwargs, i, n) for i, n in enumerate(
                ("student", "teacher", "x_clean", "x_adv", "y", "w")))
            self.loss_batch = (student.clone(), teacher, np.array(x_clean, dtype=np.float64),
                               np.array(x_adv, dtype=np.float64), np.array(y), w)


def layer_metrics(tracer: Tracer, ops: Sequence[int]) -> Dict[str, float]:
    """Every span-derived metric of PER_LAYER.

    Kinds ``calls``, ``self_ms``, ``rows``, ``nodes`` and ``steps`` are totals
    per timed operation, averaged over ``ops``. Kinds ``ms`` and ``bytes`` are
    per call, over every span of that name, set-up included. ``repeat_frac``
    and ``unique_frac`` are over ``ops``; ``errors`` counts every span of the
    layer that raised.
    """
    timed = set(ops)
    n = max(len(ops), 1)
    calls = defaultdict(int)
    own = defaultdict(float)
    all_calls = defaultdict(int)
    duration = defaultdict(float)
    errors = defaultdict(int)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        all_calls[span.name] += 1
        duration[span.name] += span.end - span.start
        errors[span.name.split(".", 1)[0]] += span.error
        if span.op in timed:
            calls[span.name] += 1
            own[span.name] += self_s
    totals = defaultdict(float)
    all_ops = defaultdict(float)
    for (op, key), value in tracer.counts.items():
        all_ops[key] += value
        if op in timed:
            totals[key] += value

    out = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[base] / n
        elif kind == "self_ms":
            out[name] = 1000.0 * own[base] / n
        elif kind in ("rows", "nodes", "steps"):
            out[name] = totals[name] / n
        elif kind == "ms":
            out[name] = 1000.0 * duration[base] / all_calls[base] if all_calls[base] else 0.0
        elif kind == "bytes":
            out[name] = all_ops[name] / all_calls[base] if all_calls[base] else 0.0
        elif kind in ("repeat_frac", "unique_frac"):
            calls_in_ops = [c for c in tracer.keys[base] if c[0] in timed]
            out[name] = (repeat_frac if kind == "repeat_frac" else unique_frac)(calls_in_ops)
        elif kind == "errors":
            out[name] = float(errors[base])
    return out


def loss_term_probe(batch: Optional[tuple], repeats: int = 25) -> Dict[str, float]:
    """Median forward + ``tensor.backward`` time of each loss term, in us.

    Each term's differentiable input is made a leaf, so the time is the
    term's own graph and not the encoder's. All zero when no batch was seen.
    """
    if batch is None:
        return {f"losses.{term}.fwd_bwd_us": 0.0 for term in LOSS_TERMS}
    student, teacher, x_clean, x_adv, y, w = batch
    teacher_z = teacher.encode_images(x_clean)
    t_hat = teacher.t_hat
    z_adv = student.encode_images(x_adv).data
    margin = losses.adaptive_margin(losses.cosine_sim_matrix(teacher_z, t_hat).data,
                                    losses.cosine_sim_matrix(t_hat, t_hat).data,
                                    y, w.m, w.eta, w.margin_sign)
    student_t = student.encode_classes().data
    s_adv = losses.cosine_sim_matrix(z_adv, t_hat).data
    terms = {
        "tam_loss": (s_adv, lambda leaf: losses.tam_loss(leaf, margin, y, w.tau)),
        "takd_loss": (z_adv, lambda leaf: losses.takd_loss(teacher_z, t_hat, leaf, w.tau)),
        "mhe_loss": (student_t, losses.mhe_loss),
        "iakd_loss": (student_t, lambda leaf: losses.iakd_loss(teacher_z, t_hat, leaf, w.tau)),
    }
    out = {}
    for term, (value, forward) in terms.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            leaf = tensor.Tensor(value, op="leaf")
            tensor.backward(forward(leaf), [leaf])
            times.append(time.perf_counter() - start)
        out[f"losses.{term}.fwd_bwd_us"] = 1e6 * statistics.median(times)
    return out
