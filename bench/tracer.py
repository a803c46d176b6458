"""Run-time span and counter wrappers around levycrm's functions.

Nothing under ``src/`` is instrumented.  ``install()`` replaces each function
named in ``SPANS`` and ``COUNTERS`` with a wrapper, at every binding that
refers to it: the defining module, every module that took it with
``from ... import``, and the class for methods.  Patching only the defining
module would miss call sites such as ``gamma.batch_poisson`` or
``posterior._poisson_invert``.

A span is (function, start, end, parent).  Spans live in memory and
``dump()`` writes them out once the command has finished.  Functions that
are not listed are not wrapped; their time counts as self time of the
nearest wrapped caller.  The CLI runs single-threaded (``--workers 1``), so
one stack gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, bucket).  A bucket is the per-layer metric that
# collects the function's self time; "root" marks cli.main, whose self time
# is reported as unattributed.
SPANS = [
    ("levycrm.cli", "main", "root"),
    ("levycrm.cli", "cmd_simulate", "cli.command_self_s"),
    ("levycrm.cli", "cmd_posterior", "cli.command_self_s"),
    ("levycrm.cli", "cmd_verify", "cli.command_self_s"),
    ("levycrm.cli", "_check_gamma_marginal", "cli.command_self_s"),
    ("levycrm.cli", "_read_jsonl", "cli.parse_self_s"),
    ("levycrm.cli", "_read_prior_draw", "cli.parse_self_s"),
    ("levycrm.cli", "_read_observations", "cli.parse_self_s"),
    ("levycrm.cli", "_json_line", "cli.serialize_self_s"),
    ("levycrm.cli", "_csv_field", "cli.serialize_self_s"),
    ("levycrm.cli", "_emit", "cli.write_s"),
    ("levycrm.streams", "RandomStream.__init__", "streams.key_derive_self_s"),
    ("levycrm.streams", "RandomStream.child", "streams.key_derive_self_s"),
    ("levycrm.streams", "RandomStream.child_keys", "streams.key_derive_self_s"),
    ("levycrm.streams", "_absorb_arr", "streams.key_derive_self_s"),
    ("levycrm.streams", "_stream_words", "streams.single_words_self_s"),
    ("levycrm.streams", "batch_words", "streams.fanout_words_self_s"),
    ("levycrm.streams", "batch_uniforms", "streams.fanout_words_self_s"),
    ("levycrm.streams", "batch_poisson", "streams.fanout_words_self_s"),
    ("levycrm.streams", "StreamCursor.poisson", "streams.poisson_self_s"),
    ("levycrm.streams", "_poisson_invert", "streams.invert_self_s"),
    ("levycrm.beta", "round_measure", "measures.round_params_self_s"),
    ("levycrm.measures", "_sample_locations", "measures.locations_self_s"),
    ("levycrm.measures", "PointMeasure.__init__", "measures.assembly_self_s"),
    ("levycrm.measures", "PointMeasure.__add__", "measures.assembly_self_s"),
    ("levycrm.beta", "simulate_beta_process", "beta.self_s"),
    ("levycrm.beta", "simulate_round", "beta.self_s"),
    ("levycrm.gamma", "simulate_gamma_process", "gamma.self_s"),
    ("levycrm.gamma", "simulate_symmetric_gamma", "gamma.self_s"),
    ("levycrm.gamma", "_simulate_grid", "gamma.self_s"),
    ("levycrm.gamma", "_emit_subround", "gamma.emit_self_s"),
    ("levycrm.gamma", "_rates_grid", "gamma.rates_grid_s"),
    ("levycrm.posterior", "resample_observed_jumps", "posterior.resample_self_s"),
    ("levycrm.posterior", "sample_new_jumps", "posterior.new_jumps_self_s"),
    ("levycrm.posterior", "posterior_params", "posterior.self_s"),
    ("levycrm.posterior", "resample_truncated_expectation", "posterior.self_s"),
    ("levycrm.truncation", "beta_l1_error", "truncation.self_s"),
    ("levycrm.truncation", "gamma_l1_error", "truncation.self_s"),
    ("levycrm.verify", "ks_distance", "verify.ks_self_s"),
]

# Whole-draw spans whose inclusive durations give the per-draw latencies.
DRAW_SPANS = {
    "beta": ["levycrm.beta.simulate_beta_process"],
    "gamma": [
        "levycrm.gamma.simulate_gamma_process",
        "levycrm.gamma.simulate_symmetric_gamma",
    ],
}


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _nonneg(n) -> int:
    return max(int(n), 0)


# (module, attribute, counter, amount(args, result)).  Counters only count;
# a function listed here and in SPANS gets both.
COUNTERS = [
    # words handed out by the generator: cursor refills and bulk reads
    ("levycrm.streams", "_stream_words", "words_generated", lambda a, r: _nonneg(a[3])),
    ("levycrm.streams", "batch_words", "words_generated",
     lambda a, r: _size(a[0]) * _nonneg(a[2])),
    # batch_uniforms evaluates a whole 4-word block per key and keeps one
    ("levycrm.streams", "batch_uniforms", "words_generated", lambda a, r: 4 * _size(a[0])),
    # words the samplers asked for
    ("levycrm.streams", "StreamCursor.words", "words_consumed", lambda a, r: _nonneg(a[1])),
    ("levycrm.streams", "batch_words", "words_consumed",
     lambda a, r: _size(a[0]) * _nonneg(a[2])),
    ("levycrm.streams", "batch_uniforms", "words_consumed", lambda a, r: _size(a[0])),
    # atoms validated by every PointMeasure built, and atoms in finished draws
    ("levycrm.measures", "PointMeasure.__init__", "atoms_validated",
     lambda a, r: len(a[0].atoms)),
    ("levycrm.beta", "simulate_beta_process", "atoms_emitted", lambda a, r: len(r)),
    ("levycrm.gamma", "simulate_gamma_process", "atoms_emitted", lambda a, r: len(r)),
    ("levycrm.gamma", "simulate_symmetric_gamma", "atoms_emitted", lambda a, r: len(r)),
    ("levycrm.cli", "_read_prior_draw", "atoms_emitted", lambda a, r: len(r)),
]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.labels: list[str] = []
        self.buckets: list[str] = []
        self.fn: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]

    def _span_wrapper(self, orig, fid):
        fn, parent, start, end, stack = (
            self.fn, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, orig, rules):
        counters = self.counters
        for name, _ in rules:
            counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            for name, amount in rules:
                counters[name] += amount(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every binding that refers to it."""
        targets: dict[tuple[str, str], dict] = {}
        for mod, attr, bucket in SPANS:
            targets.setdefault((mod, attr), {"bucket": None, "rules": []})["bucket"] = bucket
        for mod, attr, name, amount in COUNTERS:
            targets.setdefault((mod, attr), {"bucket": None, "rules": []})["rules"].append(
                (name, amount)
            )
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "levycrm"]
        for (mod, attr), spec in targets.items():
            owner = importlib.import_module(mod)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapped = orig
            if spec["rules"]:
                wrapped = self._count_wrapper(wrapped, spec["rules"])
            if spec["bucket"] is not None:
                self.labels.append(f"{mod}.{attr}")
                self.buckets.append(spec["bucket"])
                wrapped = self._span_wrapper(wrapped, len(self.labels) - 1)
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
            for m in modules:
                if any(v is orig for v in vars(m).values()):
                    raise RuntimeError(f"{mod}.{attr} is still bound unwrapped in {m.__name__}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "labels": self.labels,
                    "buckets": self.buckets,
                    "fn": self.fn,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "counters": self.counters,
                    "missing": self.missing,
                },
                f,
            )
