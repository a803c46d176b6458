"""Benchmark of the levycrm command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Each workload (see ``workloads.py``) is one fixed CLI command;
``all`` runs every workload in turn and prints a result for each.
The run is a closed loop with one client: it starts a fresh interpreter for
the command, waits for it to exit, checks its output, and starts the next,
until the next one would end after ``--seconds``.  Every invocation of a run
gets the same arguments, so every output must be byte-identical.

With ``--trace 0`` the last line reports:

* ``setup_s``      median over the invocations of the time from spawning the
                   interpreter to ``import levycrm.cli`` done (the child
                   stamps CLOCK_MONOTONIC, which the parent shares)
* ``wall_s``       median of spawn to exit, output written and flushed
* ``draws_per_s``  all draws of the run over all their time inside ``cli.main``
* ``peak_rss_mb``  median of the child's maximum resident set, from ``wait4``

``failed_frac`` is ``failed / attempted`` of that line: invocations with a
wrong exit code or an output that fails its check.

With ``--trace 1`` every other invocation runs under ``-X importtime`` with
the wrappers of ``tracer.py`` installed, and the last line reports the
per-layer metrics of ``PER_LAYER``: self times per layer (means over the
traced invocations), exact counts, per-draw latencies, the import
breakdown, and the tracing overhead as traced against untraced
``draws_per_s``.  The lines before the last one say the same for a reader,
with sample counts, the machine and the library versions.

Exit status is 0 when every check passed, 1 when a check failed (the result
line is still printed), and 2 when the package is missing or cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DRAW_SPANS, SPANS
from workloads import DEFAULT_SEED, PINNED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("draws_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cli.main_s", "s"),
    ("unattributed_s", "s"),
    ("streams.key_derive_self_s", "s"),
    ("streams.single_words_self_s", "s"),
    ("streams.fanout_words_self_s", "s"),
    ("streams.poisson_self_s", "s"),
    ("streams.invert_self_s", "s"),
    ("streams.words_generated", "count"),
    ("streams.words_consumed", "count"),
    ("streams.word_use_ratio", "ratio"),
    ("measures.round_params_self_s", "s"),
    ("measures.locations_self_s", "s"),
    ("measures.assembly_self_s", "s"),
    ("measures.atoms_validated", "count"),
    ("measures.atoms_emitted", "count"),
    ("measures.atom_copy_ratio", "ratio"),
    ("beta.self_s", "s"),
    ("beta.draw_p50_s", "s"),
    ("beta.draw_tail_s", "s"),
    ("gamma.self_s", "s"),
    ("gamma.emit_self_s", "s"),
    ("gamma.rates_grid_s", "s"),
    ("gamma.draw_p50_s", "s"),
    ("gamma.draw_tail_s", "s"),
    ("posterior.resample_self_s", "s"),
    ("posterior.new_jumps_self_s", "s"),
    ("posterior.self_s", "s"),
    ("verify.ks_self_s", "s"),
    ("truncation.self_s", "s"),
    ("cli.command_self_s", "s"),
    ("cli.parse_self_s", "s"),
    ("cli.serialize_self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.records_out", "count"),
    ("cli.bytes_out", "count"),
    ("cli.import_total_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.import_self_s", "s"),
    ("trace.traced_draws_per_s", "1/s"),
    ("trace.untraced_draws_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]

# the self-time buckets of tracer.SPANS, in report order
BUCKETS = [name for name, _ in PER_LAYER if name in {b for _, _, b in SPANS}]

MIN_INVOCATIONS = 3
BUDGET_S = 170.0  # the whole run, set-up included, ends within this
LAST_START_S = 120.0  # no invocation starts later than this into the run


class SetupError(Exception):
    """The package is missing or cannot start; no result is printed."""


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile above the median with at least 10 samples beyond it.

    The percentile is the nearest-rank one of a fixed ladder; None when even
    p75 has fewer than 10 samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, xs[math.ceil(p / 100.0 * n) - 1]
    return None


def describe(values: list[float], unit: str) -> str:
    t = tail(values)
    beyond = f"p{t[0]:g} {t[1]:.6g} {unit}" if t else "no percentile above it has 10 samples beyond it"
    return f"median {statistics.median(values):.6g} {unit}, {beyond}, n={len(values)}"


def importtime_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time by who caused the import.

    An entry belongs to numpy or scipy when its outermost numpy/scipy
    ancestor-or-self is that package; levycrm is its own modules' self time.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(self_us) / 1e6, int(cum_us) / 1e6))
    out = {"scipy": 0.0, "numpy": 0.0, "levycrm": 0.0, "total": 0.0}
    # importtime prints children before their parent; walk backwards so each
    # entry's ancestors have been seen at depths 0..depth-1
    owner_at: list[str | None] = []
    for depth, name, self_s, cum_s in reversed(entries):
        del owner_at[depth:]
        top = name.split(".")[0]
        inherited = next((o for o in owner_at if o), None)
        owner = inherited or (top if top in ("numpy", "scipy") else None)
        owner_at.append(owner)
        if owner:
            out[owner] += self_s
        elif top == "levycrm":
            out["levycrm"] += self_s
        if name == "levycrm.cli":
            out["total"] = cum_s
    return out


def span_breakdown(path: Path) -> dict:
    """Self time per bucket, unattributed time and draw latencies of one trace."""
    with open(path, encoding="utf-8") as f:
        t = json.load(f)
    n = len(t["fn"])
    dur = [e - s for s, e in zip(t["start"], t["end"])]
    child = [0.0] * n
    for i, p in enumerate(t["parent"]):
        if p >= 0:
            child[p] += dur[i]
    buckets = dict.fromkeys(BUCKETS, 0.0)
    root_s = unattributed = 0.0
    roots = 0
    for i in range(n):
        bucket = t["buckets"][t["fn"][i]]
        if bucket == "root":
            roots += 1
            root_s += dur[i]
            unattributed += dur[i] - child[i]
        else:
            buckets[bucket] += dur[i] - child[i]
    if roots != 1 or any(p < 0 for i, p in enumerate(t["parent"]) if t["buckets"][t["fn"][i]] != "root"):
        raise ValueError("the trace is not one tree under cli.main")
    if abs(sum(buckets.values()) + unattributed - root_s) > 1e-6:
        raise ValueError("self times do not add up to the cli.main time")
    draws = {}
    for family, labels in DRAW_SPANS.items():
        ids = {t["labels"].index(lb) for lb in labels if lb in t["labels"]}
        draws[family] = [dur[i] for i in range(n) if t["fn"][i] in ids]
    return {
        "buckets": buckets,
        "main_s": root_s,
        "unattributed_s": unattributed,
        "draws": draws,
        "counters": t["counters"],
        "missing": t["missing"],
    }


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t_start = time.monotonic()
        self.work = BENCH / ".work" / workload.name
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.first_digest = None
        self.first_errors: list[str] = []
        self.invocations: list[dict] = []
        self.draw_samples: dict[str, list[float]] = {}

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.t_start)

    def setup(self) -> None:
        if not (SRC / "levycrm" / "cli.py").is_file():
            raise SetupError(f"no levycrm package under {SRC}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cli = [sys.executable, "-m", "levycrm.cli"]
        try:
            # untimed: compiles the package's bytecode and fills the file cache
            subprocess.run(
                [sys.executable, "-c", "import levycrm.cli"], env=self.env, cwd=ROOT,
                check=True, stdin=subprocess.DEVNULL, timeout=self.remaining(),
            )
            self.ctx = self.w.prepare(self.work, self.seed, cli, env=self.env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise SetupError(f"set-up failed: {exc}") from exc
        self.argv = self.w.argv(self.ctx) + ["--seed", str(self.seed)]
        self.draws = self.w.draws(self.ctx)

    def invoke(self, traced: bool) -> dict:
        stamp, spans = self.work / "stamp.json", self.work / "spans.json"
        out, err = self.work / "out.jsonl", self.work / "stderr.txt"
        for p in (stamp, spans, out):
            p.unlink(missing_ok=True)
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH / "child.py"), str(stamp)]
        if traced:
            cmd.append(str(spans))
        cmd += ["--", *self.argv, "--out", str(out)]
        with open(err, "wb") as errf:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=errf,
                env=self.env, cwd=ROOT,
            )
            old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(max(1, int(self.remaining())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = {"traced": traced, "wall_s": wall, "rc": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
        errors = inv["errors"]
        if proc.returncode != 0:
            tail_lines = err.read_text(errors="replace").strip().splitlines()[-3:]
            errors.append(f"exit code {proc.returncode}: {' | '.join(tail_lines)}")
        try:
            with open(stamp, encoding="utf-8") as f:
                st = json.load(f)
        except (OSError, ValueError):
            errors.append("the child wrote no stamp")
            return inv
        if not Path(st["module"]).resolve().is_relative_to(SRC.resolve()):
            errors.append(f"levycrm was imported from {st['module']}, not {SRC}")
        inv.update(setup_s=st["imported"] - t0, main_s=st["main_s"])
        inv["draws_per_s"] = self.draws / st["main_s"]
        self.check_output(inv, out)
        if traced:
            try:
                inv["spans"] = span_breakdown(spans)
            except (OSError, ValueError) as exc:
                errors.append(f"trace: {exc}")
            inv["imports"] = importtime_breakdown(err.read_text(errors="replace"))
        return inv

    def check_output(self, inv: dict, out: Path) -> None:
        try:
            data = out.read_bytes()
        except OSError:
            inv["errors"].append("no output file")
            return
        digest = hashlib.sha256(data).hexdigest()
        inv.update(sha256=digest, bytes_out=len(data), records_out=data.count(b"\n") - 1)
        if self.first_digest is None:
            self.first_digest = digest
            try:
                self.first_errors = self.w.check(data.decode("utf-8"), self.ctx, self.seed)
            except (ValueError, KeyError, TypeError, StopIteration) as exc:
                self.first_errors = [f"malformed output: {exc!r}"]
            pinned = PINNED[self.w.name]["sha256"]
            if self.seed == DEFAULT_SEED and digest != pinned:
                self.first_errors.append(f"sha256 {digest} differs from the pinned {pinned}")
            inv["errors"] += self.first_errors
        elif digest != self.first_digest:
            inv["errors"].append("output differs from the run's first invocation")
        else:
            inv["errors"] += self.first_errors

    def run(self) -> None:
        deadline = time.monotonic() + self.seconds
        durations: list[float] = []
        while True:
            traced = self.trace and len(self.invocations) % 2 == 0
            t0 = time.monotonic()
            self.invocations.append(self.invoke(traced))
            durations.append(time.monotonic() - t0)
            now = time.monotonic()
            n = len(self.invocations)
            if now - self.t_start > LAST_START_S:
                break
            enough = n >= MIN_INVOCATIONS + (1 if self.trace else 0)
            if enough and now + statistics.median(durations) > deadline:
                break

    # ------------------------------------------------------------ reporting

    def end_to_end(self) -> dict[str, float]:
        ok = [i for i in self.invocations if "main_s" in i]
        if not ok:
            return {}
        m = {name: statistics.median(i[name] for i in ok) for name, _ in END_TO_END}
        m["draws_per_s"] = self.throughput(ok)
        return m

    def throughput(self, invocations: list[dict]) -> float:
        """Draws completed per second inside ``cli.main``, over the whole run.

        A rate pooled over the run, not a median of per-invocation rates:
        those fall into a fast and a slow cluster on a shared VM, and a
        median jumps between the clusters from run to run.
        """
        return len(invocations) * self.draws / sum(i["main_s"] for i in invocations)

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        errors: list[str] = []
        traced = [i for i in self.invocations if i["traced"] and "spans" in i]
        plain = [i for i in self.invocations if not i["traced"] and "main_s" in i]
        m: dict[str, float] = {}
        if not traced or not plain:
            return m, ["need at least one traced and one untraced invocation"]
        sp = [i["spans"] for i in traced]
        m["cli.main_s"] = statistics.fmean(s["main_s"] for s in sp)
        m["unattributed_s"] = statistics.fmean(s["unattributed_s"] for s in sp)
        for b in BUCKETS:
            m[b] = statistics.fmean(s["buckets"][b] for s in sp)
        counts = [
            {
                "streams.words_generated": s["counters"].get("words_generated", 0),
                "streams.words_consumed": s["counters"].get("words_consumed", 0),
                "measures.atoms_validated": s["counters"].get("atoms_validated", 0),
                "measures.atoms_emitted": s["counters"].get("atoms_emitted", 0),
                "cli.records_out": i["records_out"],
                "cli.bytes_out": i["bytes_out"],
            }
            for s, i in zip(sp, traced)
        ]
        if any(c != counts[0] for c in counts):
            errors.append(f"counts differ between identical invocations: {counts}")
        m.update(counts[0])
        gen, used = m["streams.words_generated"], m["streams.words_consumed"]
        m["streams.word_use_ratio"] = used / gen if gen else 0.0
        emitted = m["measures.atoms_emitted"]
        m["measures.atom_copy_ratio"] = m["measures.atoms_validated"] / emitted if emitted else 0.0
        for family in DRAW_SPANS:
            xs = [d for s in sp for d in s["draws"][family]]
            self.draw_samples[family] = xs
            t = tail(xs)
            m[f"{family}.draw_p50_s"] = statistics.median(xs) if xs else 0.0
            m[f"{family}.draw_tail_s"] = t[1] if t else m[f"{family}.draw_p50_s"]
        for key, name in (("total", "cli.import_total_s"), ("scipy", "cli.import_scipy_s"),
                          ("numpy", "cli.import_numpy_s"), ("levycrm", "cli.import_self_s")):
            m[name] = statistics.median(i["imports"][key] for i in traced)
        m["trace.traced_draws_per_s"] = self.throughput(traced)
        m["trace.untraced_draws_per_s"] = self.throughput(plain)
        m["trace.overhead_ratio"] = m["trace.untraced_draws_per_s"] / m["trace.traced_draws_per_s"]
        return m, errors

    def machine(self) -> dict:
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as f:
                cpu = next((ln.split(":", 1)[1].strip() for ln in f
                            if ln.startswith("model name")), cpu)
        except OSError:
            pass
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy")},
        }

    def report(self) -> int:
        w, inv = self.w, self.invocations
        failed = [i for i in inv if i["errors"]]
        print(f"# workload {w.name}: {w.why}")
        print(f"# command: levycrm {' '.join(self.argv)} --out <file>")
        print(f"# seed {self.seed}, {self.seconds:g} s, trace {int(self.trace)}, "
              f"closed loop, one client, {self.draws} draws per invocation")
        print(f"# machine: {json.dumps(self.machine())}")
        print(f"# failed_frac {len(failed) / len(inv):.6g} ({len(failed)} of {len(inv)} "
              "invocations failed)")
        errors = [e for i in failed for e in i["errors"]]
        if self.trace:
            metrics, trace_errors = self.per_layer()
            errors += trace_errors
            self.print_layers(metrics)
            units = dict(PER_LAYER)
        else:
            metrics = self.end_to_end()
            if not metrics:
                errors.append("no invocation reported its timings")
            plain = [i for i in inv if "main_s" in i]
            for name, unit in END_TO_END if plain else []:
                spread = describe([i[name] for i in plain], unit)
                if name == "draws_per_s":
                    spread = f"{metrics[name]:.6g} {unit} over the run; per invocation {spread}"
                print(f"# {name}: {spread}")
            units = dict(END_TO_END)
        for e in list(dict.fromkeys(errors))[:5]:
            print(f"# check failed: {e}")
        print(json.dumps({
            "correct": not errors,
            "attempted": len(inv),
            "failed": len(failed),
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units},
        }))
        return 0 if not errors else 1

    def print_layers(self, m: dict) -> None:
        traced = [i for i in self.invocations if i["traced"] and "spans" in i]
        missing = sorted({x for i in traced for x in i["spans"]["missing"]})
        if missing:
            print(f"# not found, so not traced: {', '.join(missing)}")
        print(f"# per-layer self times are means over {len(traced)} traced invocations; "
              "they plus unattributed_s add up to cli.main_s")
        pinned = PINNED[self.w.name]["counts"]
        for name, unit in PER_LAYER:
            if name not in m:
                continue
            note = ""
            if name in pinned and self.seed == DEFAULT_SEED:
                same = "same" if pinned[name] == m[name] else "CHANGED"
                note = f"  (pinned {pinned[name]}: {same})"
            value = m[name] if unit == "count" else f"{m[name]:.6g}"
            print(f"# {name}: {value} {unit}{note}")
        for family, xs in self.draw_samples.items():
            if xs:
                print(f"# {family} draw latency under tracing: {describe(xs, 's')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    # turn SIGTERM into SystemExit, so a running invocation is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        bench = Bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            bench.setup()
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        bench.run()
        status = max(status, bench.report())
    return status


if __name__ == "__main__":
    sys.exit(main())
