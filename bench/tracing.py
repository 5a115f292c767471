"""Span tracing of arithdecode's public entry points, from outside the package.

Each traced function is replaced where its caller looks it up (a module
attribute such as `sampler.locate`, or a model instance's `conditional`) by a
wrapper that records one span: (id, name, start, end, parent id, operation
id). Spans stay in memory until the run ends. `uninstall` puts every original
back, so untraced runs never pay for the wrappers.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict

from arithdecode import cli, evaluation, models, oracle, sampler

# (module, attribute looked up by callers, span name)
TARGETS = [
    (models, "conditional_modified", "models.conditional_modified"),
    (sampler, "conditional_modified", "models.conditional_modified"),
    (oracle, "conditional_modified", "models.conditional_modified"),
    (sampler, "sequence_logprob", "models.sequence_logprob"),
    (sampler, "cdf_intervals", "codebook.cdf_intervals"),
    (sampler, "locate", "codebook.locate"),
    (sampler, "renormalize", "codebook.renormalize"),
    (sampler, "lattice_codes", "codebook.lattice_codes"),
    (oracle, "lattice_codes", "codebook.lattice_codes"),
    (evaluation, "lattice_codes", "codebook.lattice_codes"),
    (sampler, "decode_code", "sampler.decode_code"),
    (cli, "decode_code", "sampler.decode_code"),
    (sampler, "parallel_decode", "sampler.parallel_decode"),
    (cli, "code_interval_of_sequence", "sampler.code_interval_of_sequence"),
    (sampler, "arithmetic_sample", "sampler.arithmetic_sample"),
    (evaluation, "arithmetic_sample", "sampler.arithmetic_sample"),
    (cli, "arithmetic_sample", "sampler.arithmetic_sample"),
    (sampler, "ancestral_sample", "sampler.ancestral_sample"),
    (evaluation, "ancestral_sample", "sampler.ancestral_sample"),
    (cli, "ancestral_sample", "sampler.ancestral_sample"),
    (oracle, "enumerate_joint", "oracle.enumerate_joint"),
    (oracle, "exact_codebook", "oracle.exact_codebook"),
    (oracle, "full_period_average", "oracle.full_period_average"),
    (evaluation, "sentence_bleu", "evaluation.sentence_bleu"),
    (evaluation, "ngram_diversity", "evaluation.ngram_diversity"),
    (evaluation, "estimator_sd", "evaluation.estimator_sd"),
    (cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under the main thread's open span.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))

        return traced

    def install(self):
        self._local.stack = self._main_stack
        # A binding that a later version of the program drops is skipped, so
        # its metrics read 0 instead of failing the run.
        for module, attr, name in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        for module in (models, cli):
            original_load = getattr(module, "load_model", None)
            if original_load is None:
                continue
            self._saved.append((module, "load_model", original_load))
            traced_load = lambda path, load=original_load: self.model(load(path))
            module.load_model = self.wrap(traced_load, "models.load_model")

    def model(self, model):
        """Trace a model instance's conditional (callers reach it through the instance)."""
        model.conditional = self.wrap(model.conditional, "models.conditional")
        return model

    def uninstall(self, *models_):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        for m in models_:
            m.__dict__.pop("conditional", None)

    def begin(self, kind: str) -> int:
        """Open the root span of one benchmark operation; later spans carry its id."""
        self.op = next(self._ids)
        self._main_stack.append(self.op)
        self._op_start = (kind, time.perf_counter())
        return self.op

    def end(self):
        kind, start = self._op_start
        self._main_stack.pop()
        self.spans.append((self.op, f"op.{kind}", start, time.perf_counter(), 0, self.op))

    def calls_in(self, op: int, name: str) -> int:
        return sum(1 for s in self.spans if s[5] == op and s[1] == name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus the
        union of time covered by its child spans)."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        return dict(out)

    def write(self, path: str):
        """Write the spans as gzipped CSV: id,name,start,end,parent,op."""
        with gzip.open(path, "wt") as f:
            f.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                f.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")
