"""The benchmark's workloads: CLI arguments, generated inputs and output checks.

Every workload is one fixed ``levycrm`` command line.  The benchmark seed
becomes the command's ``--seed`` and, for ``posterior-resample``, also seeds
the generated input files.  ``check`` verifies an output against invariants
that hold for every seed; at ``DEFAULT_SEED`` the output's sha256 must also
equal the digest pinned in ``PINNED``, because any byte change is a change
of the output contract.
"""

from __future__ import annotations

import json
import math
import subprocess
from pathlib import Path

DEFAULT_SEED = 1

# At DEFAULT_SEED: the output digest (a hard check) and the counts one traced
# invocation makes (reported next to the measured counts, so a later change
# can cite a count that moved by name).
PINNED = {
    "beta-rounds": {
        "sha256": "6059863fde4c86801ca797f6687cbfaa3a52c6a19e827570d08073376d52c6b1",
        "counts": {
            "streams.words_generated": 102400, "streams.words_consumed": 1052,
            "measures.atoms_validated": 7063, "measures.atoms_emitted": 84,
            "cli.records_out": 84, "cli.bytes_out": 11573,
        },
    },
    "beta-dense": {
        "sha256": "9686f6f12d6463d91b7dc182a64c93ac4ccd300539d11e786a74fa7eaa9af6f4",
        "counts": {
            "streams.words_generated": 26449, "streams.words_consumed": 22204,
            "measures.atoms_validated": 125157, "measures.atoms_emitted": 7236,
            "cli.records_out": 7236, "cli.bytes_out": 980836,
        },
    },
    "gamma-verify": {
        "sha256": "e2c17de6ccba1fcad8c2672e3309379c7a7c937554f2dced9783a664a735c14f",
        "counts": {
            "streams.words_generated": 2643968, "streams.words_consumed": 639480,
            "measures.atoms_validated": 5964, "measures.atoms_emitted": 861,
            "cli.records_out": 1, "cli.bytes_out": 304,
        },
    },
    "posterior-resample": {
        "sha256": "3ea95ec6c2a519e238a414f4a863ee24e982b1bb6ca350b539d880c7988206e7",
        "counts": {
            "streams.words_generated": 811840, "streams.words_consumed": 811840,
            "measures.atoms_validated": 93, "measures.atoms_emitted": 93,
            "cli.records_out": 32430, "cli.bytes_out": 2413682,
        },
    },
}


def _records(text: str) -> tuple[dict, list[dict]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


class SimulateBeta:
    """``simulate --family beta --c 1``: one JSONL row per atom."""

    def __init__(self, name: str, why: str, mass: float, K: int, replicas: int):
        self.name, self.why = name, why
        self.mass, self.K, self.replicas = mass, K, replicas

    def prepare(self, work: Path, seed: int, cli: list, env: dict) -> dict:
        return {}

    def argv(self, ctx: dict) -> list[str]:
        return [
            "simulate", "--family", "beta", "--c", "1", "--mass", f"{self.mass:g}",
            "--K", str(self.K), "--replicas", str(self.replicas),
        ]

    def draws(self, ctx: dict) -> int:
        return self.replicas

    def check(self, text: str, ctx: dict, seed: int) -> list[str]:
        errors: list[str] = []
        header, rows = _records(text)
        want = {
            "command": "simulate", "family": "beta", "c": 1.0, "mass": self.mass,
            "K": self.K, "replicas": self.replicas, "seed": seed,
        }
        for key, value in want.items():
            _expect(errors, f"header {key}", header.get(key), value)
        if not math.isclose(header.get("truncation_l1", 0.0), 1.0 / (self.K + 2)):
            errors.append(f"header truncation_l1 {header.get('truncation_l1')!r}")
        last = (0, 0)
        for n, row in enumerate(rows, 2):
            r, k = row["replica"], row["k"]
            if not (0 <= r < self.replicas and 0 <= k <= self.K and (r, k) >= last):
                errors.append(f"line {n}: replica/round ({r}, {k}) out of order or range")
            last = (r, k)
            if row["family"] != "beta" or row["h"] is not None or row["origin"] != "prior":
                errors.append(f"line {n}: wrong family, h or origin")
            if not 0.0 < row["jump"] < 1.0:
                errors.append(f"line {n}: beta jump {row['jump']} outside (0, 1)")
            (loc,) = row["location"]
            if not 0.0 <= loc <= 1.0:
                errors.append(f"line {n}: location {loc} outside [0, 1]")
            if len(errors) > 10:
                break
        if not rows:
            errors.append("no atoms at all")
        return errors


class VerifyGammaMarginal:
    """``verify --check gamma-marginal``: a KS test of simulated total mass."""

    name = "gamma-verify"
    why = ("time to a verified answer: 7,960 across-keys streams per draw, then one "
           "KS test on scipy; tiny output, so serialization is bypassed")

    def __init__(self, replicas: int):
        self.replicas = replicas

    def prepare(self, work: Path, seed: int, cli: list, env: dict) -> dict:
        return {}

    def argv(self, ctx: dict) -> list[str]:
        return ["verify", "--check", "gamma-marginal", "--replicas", str(self.replicas)]

    def draws(self, ctx: dict) -> int:
        return self.replicas

    def check(self, text: str, ctx: dict, seed: int) -> list[str]:
        errors: list[str] = []
        header, rows = _records(text)
        _expect(errors, "header command", header.get("command"), "verify")
        _expect(errors, "header checks", header.get("checks"), ["gamma-marginal"])
        _expect(errors, "header seed", header.get("seed"), seed)
        _expect(errors, "rows", [r.get("name") for r in rows], ["gamma-marginal-ks"])
        for r in rows:
            if r.get("passed") is not True or not r["computed"] < r["tolerance"]:
                errors.append(f"{r.get('name')} did not pass: {r}")
            if f"n={self.replicas}," not in r.get("detail", ""):
                errors.append(f"{r.get('name')} ran on the wrong sample size: {r}")
        return errors


class PosteriorResample:
    """``posterior`` on a generated prior draw and Bernoulli counts."""

    name = "posterior-resample"
    why = ("reads two JSONL inputs, fans each observed atom out over child streams "
           "and writes one row per draw; the only workload that runs posterior")

    c, M, K = 1.0, 4, 1000
    prior_mass, prior_K = 20, 30

    def __init__(self, rows: int):
        self.rows = rows

    def prepare(self, work: Path, seed: int, cli: list, env: dict) -> dict:
        """Write the prior draw and observation files for this seed.

        The prior is one beta draw (c=1, mass 20, K=30) from the CLI itself;
        the counts are Binomial(M, jump) from a numpy Generator seeded with
        the benchmark seed.  ``--draws`` is sized so that every seed writes
        about ``rows`` observed-draw rows, whatever its prior atom count.
        """
        import numpy as np

        prior, obs = work / "prior.jsonl", work / "obs.jsonl"
        subprocess.run(
            cli + ["simulate", "--family", "beta", "--c", "1",
                   "--mass", str(self.prior_mass), "--K", str(self.prior_K),
                   "--replicas", "1", "--seed", str(seed), "--out", str(prior)],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=env, timeout=60,
        )
        _, atoms = _records(prior.read_text(encoding="utf-8"))
        jumps = np.array([a["jump"] for a in atoms])
        counts = np.random.default_rng(seed).binomial(self.M, jumps)
        with open(obs, "w", encoding="utf-8") as f:
            for a, m in zip(atoms, counts):
                f.write(json.dumps({"location": a["location"], "count": int(m)}) + "\n")
        return {
            "prior": str(prior), "obs": str(obs), "counts": [int(m) for m in counts],
            "draws": max(1, round(self.rows / len(atoms))),
        }

    def argv(self, ctx: dict) -> list[str]:
        return [
            "posterior", "--c", "1", "--M", str(self.M), "--K", str(self.K),
            "--prior", ctx["prior"], "--obs", ctx["obs"], "--draws", str(ctx["draws"]),
        ]

    def draws(self, ctx: dict) -> int:
        # one resampled jump per observed atom and draw, plus the new jumps
        return (len(ctx["counts"]) + 1) * ctx["draws"]

    def check(self, text: str, ctx: dict, seed: int) -> list[str]:
        errors: list[str] = []
        header, rows = _records(text)
        counts, D = ctx["counts"], ctx["draws"]
        want = {
            "command": "posterior", "c": self.c, "M": self.M, "K": self.K,
            "draws": D, "new_draws": D, "prior_atoms": len(counts), "seed": seed,
        }
        for key, value in want.items():
            _expect(errors, f"header {key}", header.get(key), value)
        _expect(errors, "row count", len(rows), len(counts) * (D + 1) + D + 1)
        if errors:
            return errors
        it = iter(rows)
        for i, m in enumerate(counts):
            for d in range(D):
                r = next(it)
                if (r["record"], r["atom"], r["draw"]) != ("observed-draw", i, d):
                    return errors + [f"observed-draw ({i}, {d}) out of order: {r}"]
                if not r["value"] >= 0.0 or (m == 0 and r["value"] != 0.0):
                    errors.append(f"observed-draw ({i}, {d}) has value {r['value']}")
            r = next(it)
            if (r["record"], r["atom"], r["count"]) != ("atom-summary", i, m):
                return errors + [f"atom-summary {i} wrong: {r}"]
            if not math.isclose(r["posterior_mean"], m / (self.c + self.M)):
                errors.append(f"atom-summary {i} posterior_mean {r['posterior_mean']}")
        for d in range(D):
            r = next(it)
            if (r["record"], r["draw"]) != ("new-draw", d):
                return errors + [f"new-draw {d} out of order: {r}"]
            if not (0 <= r["k"] <= self.K and 0.0 < r["value"] < 1.0):
                errors.append(f"new-draw {d} out of range: {r}")
        r = next(it)
        _expect(errors, "summary", (r["record"], r["observed_atoms"], r["c_post"]),
                ("summary", len(counts), self.c + self.M))
        return errors[:10]


WORKLOADS = {
    w.name: w
    for w in [
        SimulateBeta(
            "beta-rounds",
            "about 10 atoms over 100 rounds per draw: per-round key derivation, "
            "round_measure rebuild and 128-word cursor refill dominate",
            mass=2.0, K=99, replicas=8,
        ),
        SimulateBeta(
            "beta-dense",
            "about 1,800 atoms over 21 rounds per draw: per-atom location loop, "
            "PointMeasure re-copying and JSONL formatting dominate",
            mass=500.0, K=20, replicas=4,
        ),
        VerifyGammaMarginal(replicas=80),
        PosteriorResample(rows=32000),
    ]
}

