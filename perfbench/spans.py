"""Span tracing for the traced run, done entirely from the benchmark side.

`Tracer.install()` replaces each traced function with a wrapper, in its
defining module and in every svassess module that imported it by name
(for example `svassess.cli.transform` or `svassess.drift.transform`), so
calls between modules are caught as well as calls from the benchmark.
Methods are wrapped on their class.  Nothing is wrapped outside the
traced run.

Spans nest through a stack.  A span's self time is its duration minus
the durations of its direct child spans; self times and call counts are
summed per name in memory and read out when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every traced function
TRACED = (
    ("cli", "main"),
    ("corpus", "load_dataset"),
    ("corpus", "parse_unified_diff"),
    ("corpus", "apply_hunks"),
    ("textprep", "preprocess_text"),
    ("textprep", "tokenize_code"),
    ("porter", "porter_stem"),
    ("features", "build_word_vocab"),
    ("features", "build_char_vocab"),
    ("features", "aggregate_char_word"),
    ("features", "transform"),
    ("features", "vectors_to_csr"),
    ("features", "FeatureModel.to_json"),
    ("features", "FeatureModel.from_json"),
    ("models", "train_classifier"),
    ("models", "predict"),
    ("models", "TrainedModel.to_json"),
    ("models", "TrainedModel.from_json"),
    ("evaluation", "grid_search"),
    ("evaluation", "compute_metrics"),
    ("drift", "drift_report"),
    ("drift", "find_all_zero_cases"),
    ("drift", "char_coverage"),
    ("reduce", "lsa_fit"),
    ("reduce", "lsa_transform_many"),
    ("scopes", "parse_scopes"),
    ("scopes", "extract_commit_ces"),
    ("neural", "forward"),
    ("neural", "backward"),
    ("neural", "adam_step"),
    ("neural", "predict_acgru"),
    ("neural", "train_acgru"),
)

CLI_SUBCOMMANDS = ("ingest", "featurize", "train", "evaluate", "drift", "assess")
CLASSIFIER_KINDS = ("naive_bayes", "logistic_regression")
# spans whose call counts are reported next to their self times
COUNTED = {
    "models.predict",
    "textprep.preprocess_text",
    "features.transform",
    "features.vectors_to_csr",
    "neural.forward",
    "neural.backward",
    "neural.adam_step",
}


def span_name(module: str, attr: str, args) -> str:
    """Spans of CLI main are named by subcommand and spans of
    train_classifier by classifier kind, so the metrics can tell them apart."""
    if (module, attr) == ("cli", "main"):
        return f"cli.{args[0][0]}"
    if (module, attr) == ("models", "train_classifier"):
        return f"models.train_classifier.{args[0].kind}"
    return f"{module}.{attr}"


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    out = []
    for module, attr in TRACED:
        if (module, attr) == ("cli", "main"):
            out += [(f"cli.{c}.self_s", "s") for c in CLI_SUBCOMMANDS]
        elif (module, attr) == ("models", "train_classifier"):
            out += [(f"models.train_classifier.{k}.self_s", "s") for k in CLASSIFIER_KINDS]
            out.append(("models.train_classifier.calls", "count"))
        else:
            out.append((f"{module}.{attr}.self_s", "s"))
            if f"{module}.{attr}" in COUNTED:
                out.append((f"{module}.{attr}.calls", "count"))
    return out


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # frames of open spans: [name, start, time covered by children]
        self._stack: list[list] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def _wrap(self, fn, module: str, attr: str):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(module, attr, args)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                self_s[name] = self_s.get(name, 0.0) + duration - frame[2]
                calls[name] = calls.get(name, 0) + 1

        return traced

    def install(self) -> None:
        import svassess  # noqa: F401  (loads every submodule)

        modules = {
            name[len("svassess."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("svassess.")
        }
        modules[""] = sys.modules["svassess"]
        for module, attr in TRACED:
            home = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, module, attr))
                else:
                    wrapped = self._wrap(raw, module, attr)
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, module, attr)
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)

    def snapshot(self) -> dict[str, float]:
        """Self times and call counts accumulated since the last reset,
        keyed by metric name."""
        out: dict[str, float] = {f"{name}.self_s": t for name, t in self.self_s.items()}
        out.update({f"{name}.calls": n for name, n in self.calls.items()})
        out["models.train_classifier.calls"] = sum(
            n for name, n in self.calls.items() if name.startswith("models.train_classifier.")
        )
        return out
