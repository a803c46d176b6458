"""Command-line interface: reproducibility, formats, exit codes.

Runs go through ``main(argv)`` with ``--out`` into tmp files; the
checks parse the emitted JSONL/CSV rather than trusting internals.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import levycrm
from levycrm import cli, measures, posterior, streams, truncation
from levycrm.cli import _emit, main
from reference import csv_field, json_line


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def jsonl_rows(data: bytes):
    return [json.loads(line) for line in data.decode().splitlines()]


def test_same_seed_byte_identical(tmp_path):
    argv = [
        "simulate", "--family", "beta", "--c", "1", "--mass", "2",
        "--K", "9", "--replicas", "5", "--seed", "77",
    ]
    code1, a = run(tmp_path, "a.jsonl", argv)
    code2, b = run(tmp_path, "b.jsonl", argv)
    assert code1 == 0 and code2 == 0
    assert a == b
    rows = jsonl_rows(a)
    assert rows[0]["seed"] == 77
    assert len(rows) > 1


def test_worker_pool_size_does_not_change_bytes(tmp_path):
    # a repeat run writes the same bytes
    argv = [
        "simulate", "--family", "gamma", "--theta", "1", "--mass", "2",
        "--K", "20", "--H", "10", "--replicas", "8", "--seed", "123",
    ]
    _, first = run(tmp_path, "w1.jsonl", argv)
    _, again = run(tmp_path, "w2.jsonl", argv)
    assert first == again
    # rows come out replica-ordered
    rows = jsonl_rows(first)[1:]
    replicas = [r["replica"] for r in rows]
    assert replicas == sorted(replicas)


# sha256 of runs that no benchmark workload reaches: gamma cells above one
# Poisson chunk (rate 20 at k = h = 1), symmetric gamma, CSV, posterior
# counts whose rate needs two chunks, and dense beta rounds (hundreds of
# atoms per round) at a seed of their own, the default and full verify
# suites at seed 5, CSV posterior and symmetric-gamma runs (signed jumps, a
# numeric h column), a run written to stdout, sparse beta rounds (2,501
# rounds, most of them empty, over three plan blocks of up to 1,024), a beta
# and a CSV gamma truncation table, the three density checks at a fixed K and
# H, a verify header that expands the default group between repeated names,
# the two replica checks at 2,500 replicas, whose Gamma(2, 1) CDF reaches
# both the Lanczos band near x = 2 and the continued fraction above it, and
# two 151-row truncation tables: beta at a non-integer c, where the tail
# c/(c+K+1) differs in the last bit from round K+1's rate for some K, and
# gamma at H = 40 as CSV.  A changed digest is a change of the output
# contract, not of speed.
BYTE_PINS = {
    "gamma-mass40": "558260aa555c9eea07a944cb29ff5ea0205f7acb75f141ac5b08bd2eca1fae2f",
    "symmetric-gamma": "c19e950ac049ecc1377a1c8e39ec06ae07831919ea25c03cd9b4faf128e6dea0",
    "beta-csv": "2a379f0d309da32ff406fbbfb74fdd89c145f0c0b8b02386486d06b9f5f8d915",
    "posterior-M4": "26552ae2b3082dacf12dca14faf9db3dace80bfb5035af4c4c65e583a2b14aac",
    "beta-dense": "5c61123240f75a8815f8ec5c43e46fb7495530a94e028afeb3f37ab1fbe1800c",
    "verify-default": "65f3dea4e86a56f1bfdaf5f8fd4f23c64e525ceb0aa4e681a3e1c999630a684b",
    "verify-all": "2d1f77266e2f9ad7553c8e44f178203cda4ee16c5065561592afcc3b58d1d653",
    "posterior-M4-csv": "d4d347384d3785f642cc4fee6e95db3fe183208d189699420e31067111d0f2de",
    "symmetric-gamma-csv": "d7a5a8d38924bf6358f2d11679eb1e7e52113b936ccbd7b03c07be03812ba936",
    "beta-stdout": "b08843e7af67da18361606586346336352cad4a6650c0ad78ceba33542495a0c",
    "beta-sparse": "7b60c9d20e5c232ef365c71db9bc07dc52dd1047bd2000c39db257f9302490a5",
    "truncation-beta": "489e2d90376557747d8ffe4394f891c92026d3de559324afbc9a221090ed6062",
    "truncation-gamma-csv": "4651b04c70c86abb32798ccee51d52cc27ed933b53cfd87ab08932f787dca52a",
    "verify-density-fixed-K": "009de3d4c2c356e488d401ebdef2dce204fd6492a700f322288560e92ac9652c",
    "verify-groups": "abb9e0df79a4d6bac11911983c184b7bc104bfda10b26117b639d15078ea4aee",
    "verify-replica-checks": "5373eb38cd1ab0b05c9ec1e787ff7b5d038390703ee3db3b4d770da0d79b7b63",
    "truncation-beta-c0.37": "9e014c1a51c6ab3b838cd6a06b8b5760c61ee94774947e6f53a655e344713a02",
    "truncation-gamma-H40-csv": "9f814664e3a36c33c56666afd760d53592f746a9179d9f2a036c03cdb134207e",
}


def test_output_bytes_are_pinned(tmp_path):
    got = {}
    _, got["gamma-mass40"] = run(tmp_path, "g.jsonl", [
        "simulate", "--family", "gamma", "--theta", "1", "--mass", "40",
        "--K", "30", "--H", "inf", "--replicas", "3", "--seed", "21",
    ])
    _, got["symmetric-gamma"] = run(tmp_path, "s.jsonl", [
        "simulate", "--family", "symmetric-gamma", "--theta", "2", "--mass", "3",
        "--K", "25", "--H", "inf", "--replicas", "3", "--seed", "22",
    ])
    _, got["beta-csv"] = run(tmp_path, "b.csv", [
        "simulate", "--family", "beta", "--c", "2", "--mass", "4", "--K", "15",
        "--replicas", "3", "--seed", "23", "--format", "csv",
    ])
    _, prior = run(tmp_path, "prior.jsonl", [
        "simulate", "--family", "beta", "--c", "1", "--mass", "5", "--K", "30",
        "--replicas", "1", "--seed", "24",
    ])
    # counts 0..4 cycle over the prior atoms; m_i = 3 and 4 need two chunks
    obs = tmp_path / "obs.jsonl"
    obs.write_text("".join(
        json.dumps({"location": r["location"], "count": i % 5}) + "\n"
        for i, r in enumerate(jsonl_rows(prior)[1:])
    ))
    posterior_argv = [
        "posterior", "--c", "1", "--mass", "5", "--M", "4", "--K", "1000",
        "--draws", "300", "--seed", "25",
        "--prior", str(tmp_path / "prior.jsonl"), "--obs", str(obs),
    ]
    _, got["posterior-M4"] = run(tmp_path, "p.jsonl", posterior_argv)
    _, got["posterior-M4-csv"] = run(tmp_path, "p.csv", posterior_argv + ["--format", "csv"])
    _, got["symmetric-gamma-csv"] = run(tmp_path, "s.csv", [
        "simulate", "--family", "symmetric-gamma", "--theta", "2", "--mass", "3",
        "--K", "25", "--H", "8", "--replicas", "3", "--seed", "27", "--format", "csv",
    ])
    res = _fresh_python(
        "import sys; from levycrm.cli import main; sys.exit(main(sys.argv[1:]))",
        ["simulate", "--family", "beta", "--c", "1", "--mass", "3", "--K", "12",
         "--replicas", "2", "--seed", "29"],
    )
    assert res.returncode == 0, res.stderr
    got["beta-stdout"] = res.stdout
    _, got["beta-dense"] = run(tmp_path, "d.jsonl", [
        "simulate", "--family", "beta", "--c", "1", "--mass", "300", "--K", "20",
        "--replicas", "2", "--seed", "26",
    ])
    _, got["beta-sparse"] = run(tmp_path, "sp.jsonl", [
        "simulate", "--family", "beta", "--c", "1", "--mass", "0.5", "--K", "2500",
        "--replicas", "2", "--seed", "27",
    ])
    _, got["verify-default"] = run(tmp_path, "v.jsonl", ["verify", "--seed", "5"])
    code, got["verify-all"] = run(tmp_path, "va.jsonl", [
        "verify", "--check", "all", "--replicas", "200", "--seed", "5",
    ])
    # every check passes at 200 replicas: the symmetric-gamma variance is held
    # to 4 standard errors, not to a fixed share of the target
    assert code == 0
    _, got["truncation-beta"] = run(tmp_path, "tb.jsonl", [
        "truncation-table", "--family", "beta", "--c", "1", "--mass", "3",
        "--K-max", "12", "--M", "10", "--seed", "1",
    ])
    _, got["truncation-gamma-csv"] = run(tmp_path, "tg.csv", [
        "truncation-table", "--family", "gamma", "--mass", "2", "--K-max", "9",
        "--H", "4", "--seed", "2", "--format", "csv",
    ])
    _, got["verify-density-fixed-K"] = run(tmp_path, "vd.jsonl", [
        "verify", "--check", "beta-density", "--check", "stable-beta-density",
        "--check", "gamma-density", "--K", "30", "--H", "20", "--sigma", "0.3",
        "--seed", "4",
    ])
    _, got["verify-groups"] = run(tmp_path, "vg.jsonl", [
        "verify", "--check", "ibp", "--check", "default", "--check", "ibp",
        "--seed", "3",
    ])
    _, got["verify-replica-checks"] = run(tmp_path, "vr.jsonl", [
        "verify", "--check", "gamma-marginal", "--check", "symmetric-variance",
        "--replicas", "2500", "--seed", "3",
    ])
    _, got["truncation-beta-c0.37"] = run(tmp_path, "tb37.jsonl", [
        "truncation-table", "--family", "beta", "--c", "0.37", "--mass", "11.3",
        "--K-max", "150", "--M", "7",
    ])
    _, got["truncation-gamma-H40-csv"] = run(tmp_path, "tg40.csv", [
        "truncation-table", "--family", "gamma", "--mass", "0.7", "--K-max", "150",
        "--H", "40", "--format", "csv",
    ])
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == BYTE_PINS


def test_gamma_header_truncation_error(tmp_path):
    code, data = run(tmp_path, "g.jsonl", [
        "simulate", "--family", "gamma", "--theta", "1", "--K", "9",
        "--H", "inf", "--replicas", "2", "--seed", "5",
    ])
    assert code == 0
    header = jsonl_rows(data)[0]
    assert header["truncation_l1"] == 0.1
    assert header["H"] == "inf"
    assert header["H_sim_cap"] == 64
    for row in jsonl_rows(data)[1:]:
        assert 1 <= row["k"] <= 9
        assert row["h"] >= 1
        assert row["jump"] > 0.0


def test_zero_replicas_emits_header_only(tmp_path):
    code, data = run(tmp_path, "z.jsonl", [
        "simulate", "--family", "beta", "--c", "1", "--K", "3",
        "--replicas", "0", "--seed", "9",
    ])
    assert code == 0
    assert len(data.decode().splitlines()) == 1
    code, data = run(tmp_path, "z.csv", [
        "simulate", "--family", "beta", "--c", "1", "--K", "3",
        "--replicas", "0", "--seed", "9", "--format", "csv",
    ])
    lines = data.decode().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# ")
    assert lines[1].split(",")[0] == "replica"


def test_rounds_flag_matches_K(tmp_path):
    argv = ["simulate", "--family", "beta", "--c", "2", "--replicas", "3", "--seed", "4"]
    _, via_k = run(tmp_path, "k.jsonl", argv + ["--K", "9"])
    _, via_rounds = run(tmp_path, "r.jsonl", argv + ["--rounds", "10"])
    assert via_k == via_rounds
    # gamma rounds start at k = 1, so N rounds are k = 1..N
    argv = ["simulate", "--family", "gamma", "--theta", "1", "--H", "5", "--seed", "4"]
    for n in (1, 3):
        code_k, via_k = run(tmp_path, "gk.jsonl", argv + ["--K", str(n)])
        code_r, via_rounds = run(tmp_path, "gr.jsonl", argv + ["--rounds", str(n)])
        assert code_k == code_r == 0 and via_k == via_rounds


def test_csv_and_jsonl_carry_identical_numbers(tmp_path):
    argv = [
        "simulate", "--family", "symmetric-gamma", "--theta", "2", "--mass", "3",
        "--K", "15", "--H", "8", "--replicas", "4", "--seed", "31",
    ]
    _, jdata = run(tmp_path, "s.jsonl", argv)
    _, cdata = run(tmp_path, "s.csv", argv + ["--format", "csv"])
    jrows = jsonl_rows(jdata)[1:]
    clines = cdata.decode().splitlines()
    creader = list(csv.DictReader(clines[1:]))
    assert len(jrows) == len(creader) > 0
    for jr, cr in zip(jrows, creader):
        assert int(cr["replica"]) == jr["replica"]
        assert int(cr["k"]) == jr["k"]
        # 17 significant digits round-trip doubles exactly
        assert float(cr["jump"]) == jr["jump"]
        locs = [float(x) for x in cr["location"].split(";")]
        assert locs == jr["location"]


def test_truncation_table_beta(tmp_path):
    code, data = run(tmp_path, "t.jsonl", [
        "truncation-table", "--family", "beta", "--c", "1",
        "--K-max", "9", "--M", "3", "--seed", "0",
    ])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    assert [r["K"] for r in rows] == list(range(10))
    last = rows[-1]
    assert last["l1_error"] == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert last["stick_breaking_l1"] == 0.0009765625
    assert last["marginal_bound"] == pytest.approx(-math.expm1(-3.0 / 11.0), rel=1e-12)
    assert last["expected_atoms"] == pytest.approx(
        math.fsum(1.0 / (1.0 + k) for k in range(10)), rel=1e-12
    )
    assert rows[0]["l1_error"] == 0.5


def test_truncation_table_gamma(tmp_path):
    code, data = run(tmp_path, "tg.jsonl", [
        "truncation-table", "--family", "gamma", "--K-max", "3",
        "--H", "inf", "--seed", "0",
    ])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    assert [r["K"] for r in rows] == [1, 2, 3]
    assert rows[0]["l1_error"] == 0.5
    assert rows[2]["l1_error"] == 0.25
    assert rows[2]["expected_atoms"] == pytest.approx(math.log(4.0), rel=1e-12)
    # finite H adds the subround tail on top of 1/(K+1)
    _, data = run(tmp_path, "tg2.jsonl", [
        "truncation-table", "--family", "gamma", "--K-max", "1",
        "--H", "1", "--seed", "0",
    ])
    assert jsonl_rows(data)[1]["l1_error"] == pytest.approx(0.75, rel=1e-15)


def test_beta_truncation_table_takes_one_integral_per_row(tmp_path):
    # each row adds one tail integral to the running sums of the row before;
    # re-summing every row from round 0 took 20,703 integrals here
    calls = []
    integral_against = measures.BaseMeasure.integral_against

    def spy(self, *args, **kwargs):
        calls.append(None)
        return integral_against(self, *args, **kwargs)

    with mock.patch.object(measures.BaseMeasure, "integral_against", spy):
        code, data = run(tmp_path, "t.jsonl", [
            "truncation-table", "--family", "beta", "--c", "1",
            "--K-max", "200", "--M", "10",
        ])
    assert code == 0
    assert len(jsonl_rows(data)) == 1 + 201
    assert 0 < len(calls) <= 200 + 2


def test_truncation_table_without_seed_is_deterministic(tmp_path):
    # the table draws nothing, so no seed is generated for it
    for family in (["beta", "--c", "1", "--mass", "3"], ["gamma", "--H", "4"]):
        argv = ["truncation-table", "--family"] + family
        _, a = run(tmp_path, "a.jsonl", argv)
        _, b = run(tmp_path, "b.jsonl", argv)
        assert a == b
        assert jsonl_rows(a)[0]["seed"] is None
        _, seeded = run(tmp_path, "s.jsonl", argv + ["--seed", "3"])
        assert jsonl_rows(seeded)[0]["seed"] == 3


_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INTS = st.integers(-(2**62), 2**62)
_CONSTANTS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    st.lists(_FLOATS, min_size=1, max_size=3),
    st.text(',"%\n aé', max_size=8),
)
# the header is JSON in either format, so it also holds lists of strings
# (verify's checks) and keys that need escaping
_HEADERS = st.dictionaries(
    st.text('%"\\ aé', max_size=4),
    st.one_of(_CONSTANTS, st.lists(st.text(',"%\n aé', max_size=8), max_size=3)),
    max_size=6,
)


@st.composite
def _blocks(draw):
    """Blocks over fields f0%..f3%, and CSV columns with one no block has."""
    names = [f"f{j}%" for j in range(4)]
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 5))
        block = {}
        for name in draw(st.permutations(names))[: draw(st.integers(1, 4))]:
            kind = draw(st.sampled_from(["constant", "int", "float", "location"]))
            if kind == "constant":
                block[name] = draw(_CONSTANTS)
            elif kind == "int":
                block[name] = draw(arrays(np.int64, n, elements=_INTS))
            else:
                shape = (n, draw(st.integers(1, 3))) if kind == "location" else n
                block[name] = draw(arrays(np.float64, shape, elements=_FLOATS))
        blocks.append(block)
    columns = names[:]
    columns.insert(draw(st.integers(0, 4)), "missing")
    return blocks, columns


def _block_rows(block):
    """A block's rows as dicts of Python values, as records used to be built."""
    cols = [v for v in block.values() if isinstance(v, np.ndarray)]
    for i in range(len(cols[0]) if cols else 1):
        yield {
            k: v[i].tolist() if isinstance(v, np.ndarray) else v
            for k, v in block.items()
        }


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(case=_blocks(), header=_HEADERS, jsonl=st.booleans())
def test_block_templates_match_row_writer(case, header, jsonl):
    blocks, columns = case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(argparse.Namespace(format="jsonl" if jsonl else "csv", out=None),
              header, blocks, columns)
    rows = [r for b in blocks for r in _block_rows(b)]
    # the reference is the row-at-a-time writer
    if jsonl:
        lines = [json_line(header)] + [json_line(r) for r in rows]
    else:
        lines = ["# " + json_line(header), ",".join(columns)]
        lines += [",".join(csv_field(r.get(c)) for c in columns) for r in rows]
    text = buf.getvalue()
    assert text == "\n".join(lines) + "\n"
    # every number comes back exactly
    if jsonl:
        # Python's json reads the number -0 as the integer 0; the text keeps the sign
        neg0 = lambda s: -0.0 if s == "-0" else int(s)
        parsed = [json.loads(line, parse_int=neg0) for line in text.splitlines()[1:]]
    else:
        parsed = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1], newline="")))
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        assert got.pop("missing", "") == ""
        assert list(got) == list(want) if jsonl else set(got) == set(columns) - {"missing"}
        for k, v in want.items():
            g = got[k]
            if isinstance(v, (float, list)):
                if not jsonl:
                    g = [float(x) for x in g.split(";")] if isinstance(v, list) else float(g)
                assert _bits(g) == _bits(v)
            elif jsonl:
                assert g == v
            else:
                assert g == ("" if v is None else json.dumps(v) if isinstance(v, bool) else str(v))


def test_bad_value_in_late_block_writes_nothing(tmp_path):
    ok = {"record": "a", "value": np.arange(3.0)}
    for fmt in ("jsonl", "csv"):
        for bad in (math.nan, math.inf, -math.inf):
            for late in ({"value": np.array([1.0, bad])}, {"value": bad}):
                out = tmp_path / f"x.{fmt}"
                args = argparse.Namespace(format=fmt, out=str(out))
                with pytest.raises(ValueError):
                    _emit(args, {"command": "test"}, [ok] * 3 + [late], ["record", "value"])
                assert not out.exists()


def _write_posterior_inputs(tmp_path):
    prior = tmp_path / "prior.jsonl"
    prior.write_text(
        "\n".join([
            '{"location": [0.2], "jump": 0.4, "k": 0}',
            '{"location": [0.6], "jump": 0.1, "k": 2}',
        ]) + "\n"
    )
    obs = tmp_path / "obs.jsonl"
    obs.write_text(
        "\n".join([
            '{"location": [0.2], "count": 2}',
            '{"location": [0.6], "count": 0}',
        ]) + "\n"
    )
    return prior, obs


def test_posterior_flow(tmp_path):
    prior, obs = _write_posterior_inputs(tmp_path)
    code, data = run(tmp_path, "p.jsonl", [
        "posterior", "--c", "1", "--M", "2", "--K", "50",
        "--draws", "200", "--seed", "13",
        "--prior", str(prior), "--obs", str(obs),
    ])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["record"], []).append(r)
    assert len(by_kind["observed-draw"]) == 2 * 200
    summaries = by_kind["atom-summary"]
    assert summaries[0]["count"] == 2
    assert summaries[0]["posterior_mean"] == pytest.approx(2.0 / 3.0, rel=1e-15)
    # the Beta(2, 1) reference variance at a = c+M = 3 is 2/36; the
    # empirical variance is reported beside it, not asserted against it
    assert summaries[0]["beta_ref_var"] == pytest.approx(1.0 / 18.0, rel=1e-15)
    assert summaries[0]["empirical_var"] > 0.0
    assert summaries[1]["beta_ref_var"] is None
    assert summaries[0]["truncated_mean"] == pytest.approx(
        posterior.resample_truncated_expectation(1.0, 2, 2, 50), rel=1e-15
    )
    # zero-count atoms resample to exactly zero
    assert summaries[1]["empirical_mean"] == 0.0
    assert len(by_kind["new-draw"]) == 200
    assert all(0 <= r["k"] <= 50 and 0.0 < r["value"] < 1.0 for r in by_kind["new-draw"])
    summary = by_kind["summary"][0]
    assert summary["c_post"] == 3.0
    assert summary["prior_equivalent"] is False
    # --new-draws sets the new-draw rows apart from --draws
    argv = [
        "posterior", "--c", "1", "--M", "2", "--K", "50", "--draws", "3",
        "--seed", "13", "--prior", str(prior), "--obs", str(obs),
    ]
    for new, want in [("0", 0), ("5", 5)]:
        code, data = run(tmp_path, "n.jsonl", argv + ["--new-draws", new])
        assert code == 0
        header, *rows = jsonl_rows(data)
        assert header["new_draws"] == want
        assert sum(r["record"] == "new-draw" for r in rows) == want
        assert sum(r["record"] == "observed-draw" for r in rows) == 2 * 3
    assert main(argv + ["--new-draws", "-1", "--out", str(tmp_path / "x.jsonl")]) == 2


def test_posterior_m0_is_prior_equivalent(tmp_path):
    prior, _ = _write_posterior_inputs(tmp_path)
    obs = tmp_path / "obs0.jsonl"
    obs.write_text('{"location": [0.2], "count": 0}\n')
    code, data = run(tmp_path, "p0.jsonl", [
        "posterior", "--c", "2", "--mass", "1.5", "--M", "0", "--K", "10",
        "--draws", "50", "--seed", "13",
        "--prior", str(prior), "--obs", str(obs),
    ])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    summary = [r for r in rows if r["record"] == "summary"][0]
    assert summary["prior_equivalent"] is True
    assert summary["c_post"] == 2.0
    assert summary["base_mass"] == pytest.approx(1.5, rel=1e-12)


def test_posterior_malformed_inputs(tmp_path, capsys):
    prior, obs = _write_posterior_inputs(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"location": [0.2], "count": 2}\n{"location": [0.3]\n')
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(prior),
        "--obs", str(bad), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2" in err
    # count above M is named with its line too
    bad.write_text('{"location": [0.2], "count": 5}\n')
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(prior),
        "--obs", str(bad), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert f"{bad}:1" in capsys.readouterr().err
    # a prior jump outside (0, 1) is an InvalidPriorError, named with its line
    bad_prior = tmp_path / "bad_prior.jsonl"
    bad_prior.write_text(
        '{"location": [0.2], "jump": 0.4}\n{"location": [0.6], "jump": 1.5}\n'
    )
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
        "--obs", str(obs), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert f"{bad_prior}:2" in capsys.readouterr().err
    # the file is checked as it streams: a bad jump before broken JSON is named
    bad_prior.write_text(
        '{"location": [0.2], "jump": 0.4}\n{"location": [0.6], "jump": 1.5}\n'
        '{"location": [0.7]\n'
    )
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
        "--obs", str(obs), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert f"{bad_prior}:2" in capsys.readouterr().err
    # a round index that is not a nonnegative integer, a location entry that
    # is not a number, and a location dimension that changes are each named
    # at their line, in either file
    good_prior = '{"location": [0.2], "jump": 0.4, "k": 1}\n'
    good_obs = '{"location": [0.2], "count": 1}\n'
    prior_lines = [
        '{"location": [0.6], "jump": 0.1, "k": "x"}',
        '{"location": [0.6], "jump": 0.1, "k": 2.7}',
        '{"location": [0.6], "jump": 0.1, "k": -1}',
        '{"location": [0.6], "jump": 0.1, "k": true}',
        '{"location": ["x"], "jump": 0.1}',
        '{"location": [null], "jump": 0.1}',
        '{"location": [0.6, 0.1], "jump": 0.1}',
    ]
    # and so are a location outside the unit domain, a non-finite one, and an
    # observation location given twice, whatever its counts
    prior_lines += [
        '{"location": [1.5], "jump": 0.1}',
        '{"location": [NaN], "jump": 0.1}',
        '{"location": [-Infinity], "jump": 0.1}',
        '{"location": [7.0, -3.0], "jump": 0.1}',
        '{"location": [0.6], "jump": 1' + "0" * 400 + '}',
    ]
    # and so are a line of JSON that is not an object, a missing location and
    # a jump that is not a number
    prior_lines += [
        '[0.6, 0.1]',
        '{"jump": 0.1}',
        '{"location": [0.6], "jump": "0.1"}',
    ]
    obs_lines = [
        '{"location": ["x"], "count": 1}',
        '{"location": [false], "count": 1}',
        '{"location": [0.6, 0.1], "count": 1}',
        '{"location": [1.5], "count": 1}',
        '{"location": [-0.25], "count": 0}',
        '{"location": [NaN], "count": 1}',
        '{"location": [Infinity], "count": 0}',
        '{"location": [0.2], "count": 2}',
        '{"location": [0.2], "count": 0}',
        '{"location": [0.20], "count": 1}',
    ]
    cases = [(good_prior + line + "\n", good_obs) for line in prior_lines]
    cases += [(good_prior, good_obs + line + "\n") for line in obs_lines]
    for prior_text, obs_text in cases:
        bad_prior.write_text(prior_text)
        bad.write_text(obs_text)
        code = main([
            "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
            "--obs", str(bad), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        named = bad_prior if prior_text != good_prior else bad
        err = capsys.readouterr().err
        assert f"{named}:2" in err, (prior_text, obs_text)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()
    # a byte that is not UTF-8 is named at its line, though the reader
    # decodes the file in chunks
    bad_prior.write_bytes(
        good_prior.encode() + b'{"location": [0.6], "jump": 0.1, "note": "\xff"}\n'
    )
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
        "--obs", str(obs), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: parse error at {bad_prior}:2: not valid UTF-8\n"
    # a file with no records is refused, prior or observations
    for prior_text, obs_text, named in (("", good_obs, bad_prior), (good_prior, "\n", bad)):
        bad_prior.write_text(prior_text)
        bad.write_text(obs_text)
        code = main([
            "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
            "--obs", str(bad), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} holds no ") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()
    # locations of one dimension throughout, but not the prior's, in either file
    bad.write_text('{"location": [0.2, 0.7], "count": 1}\n')
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(prior),
        "--obs", str(bad), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "dimension 1" in err and f"{bad}:1" in err
    bad_prior.write_text(
        '{"location": [0.2, 0.9], "jump": 0.4}\n{"location": [7.0, -3.0], "jump": 0.3}\n'
    )
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(bad_prior),
        "--obs", str(obs), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "dimension 1" in err and f"{bad_prior}:1" in err
    code = main([
        "posterior", "--c", "1", "--M", "2", "--prior", str(tmp_path / "nope.jsonl"),
        "--obs", str(obs), "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert str(tmp_path / "nope.jsonl") in capsys.readouterr().err


def test_blank_lines_between_records_are_skipped(tmp_path):
    prior, obs = _write_posterior_inputs(tmp_path)
    argv = ["posterior", "--c", "1", "--M", "2", "--K", "20", "--draws", "5", "--seed", "3"]
    _, want = run(tmp_path, "a.jsonl", argv + ["--prior", str(prior), "--obs", str(obs)])
    for path in (prior, obs):
        path.write_text("\n" + path.read_text().replace("\n", "\n  \n\n", 1))
    assert prior.read_text().count("\n") == 5
    _, got = run(tmp_path, "b.jsonl", argv + ["--prior", str(prior), "--obs", str(obs)])
    assert got == want


def test_prior_draw_is_checked_without_being_held(tmp_path):
    # the update reads only the prior's atom count, so a big prior file costs
    # constant memory: its records are checked one line at a time
    prior = tmp_path / "prior.jsonl"
    n = 5000
    prior.write_text(
        '{"command": "simulate"}\n'
        + "".join(
            f'{{"location": [{(i + 0.5) / n!r}], "jump": 0.25, "k": {i % 7}}}\n'
            for i in range(n)
        )
    )
    tracemalloc.start()
    try:
        atoms = cli._read_prior_draw(str(prior), measures.Domain())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(atoms) == n


def test_bad_flags_exit_2(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.jsonl"
    prior, obs = _write_posterior_inputs(tmp_path)
    beta_run = ["simulate", "--family", "beta", "--c", "1", "--K", "3"]
    gamma_run = ["simulate", "--family", "gamma", "--theta", "1", "--K", "3"]
    table = ["truncation-table", "--family", "beta", "--c", "1"]
    files = ["--prior", str(prior), "--obs", str(obs)]
    update = ["posterior", "--c", "1", "--M", "2", *files]
    runs = [
        ["simulate", "--family", "beta", "--K", "3"],
        ["simulate", "--family", "beta", "--c", "1"],
        beta_run + ["--mass", "-2"],
        # the signed family's doubled rate overflows to inf, above the rate cap
        ["simulate", "--family", "symmetric-gamma", "--theta", "1", "--mass", "1e308",
         "--K", "1"],
        ["simulate", "--family", "gamma", "--theta", "1", "--K", "0"],
        beta_run + ["--seed", "-4"],
        ["simulate", "--family", "beta", "--c", "1", "--rounds", "0"],
        beta_run + ["--replicas", "-1"],
        ["simulate", "--family", "beta", "--c", "1", "--K", "-1"],
        ["simulate", "--family", "gamma", "--K", "3"],
        # every --H but inf is read by gamma._finite_h
        gamma_run + ["--H", "0"],
        gamma_run + ["--H", "2.5"],
        gamma_run + ["--H", "x"],
        table + ["--mass", "0"],
        table + ["--K-max", "-1"],
        ["truncation-table", "--family", "beta"],
        table + ["--M", "0"],
        ["truncation-table", "--family", "gamma", "--H", "0"],
        ["posterior", "--c", "0", "--M", "2", *files],
        update + ["--mass", "0"],
        ["posterior", "--c", "1", "--M", "-1", *files],
        update + ["--K", "-1"],
        update + ["--draws", "0"],
        # a flag of another family is refused, not ignored
        ["simulate", "--family", "beta", "--c", "1", "--K", "2", "--H", "x"],
        ["simulate", "--family", "gamma", "--theta", "1", "--c", "5", "--K", "2"],
        ["truncation-table", "--family", "beta", "--c", "1", "--H", "0"],
        ["truncation-table", "--family", "gamma", "--c", "5", "--M", "3"],
        beta_run + ["--H", "inf"],
        beta_run + ["--theta", "1"],
        ["truncation-table", "--family", "gamma", "--M", "3"],
        # nor is a flag that no chosen check reads
        ["verify", "--check", "ibp", "--K", "5"],
        ["verify", "--check", "ibp", "--H", "7"],
        ["verify", "--check", "moment-closure", "--replicas", "50"],
        ["verify", "--check", "ibp", "--sigma", "0.9"],
        ["verify", "--check", "gamma-marginal", "--N", "5", "--replicas", "20"],
        # a KS test of 3 samples has a critical value above 1 and could not fail
        ["verify", "--check", "gamma-marginal", "--replicas", "3"],
        # no stream takes a seed of 2**64, drawn or not
        table + ["--seed", str(2**64)],
        # ranges are the library's, and NaN fails them all
        beta_run + ["--c", "nan"],
        beta_run + ["--mass", "nan"],
        gamma_run + ["--theta", "nan"],
        gamma_run + ["--mass", "nan"],
        table + ["--c", "nan"],
        table + ["--mass", "nan"],
        ["truncation-table", "--family", "gamma", "--mass", "nan"],
        ["posterior", "--c", "nan", "--M", "2", *files],
        update + ["--mass", "nan"],
        # the reader's own refusals: each is one error line, not a usage block
        ["simulat", "--family", "beta", "--c", "1", "--K", "3"],
        ["verify", "--check", "gamma-marginal", "--rep", "8"],
        ["simulate", "--family", "beta", "--c", "1", "--K", "x"],
        ["simulate", "--family", "beta", "--c", "1", "--K"],
        ["simulate", "--family", "foo", "--c", "1", "--K", "3"],
        beta_run + ["--format", "xml"],
        beta_run + ["--rounds", "3"],
        ["posterior", "--c", "1", "--M", "2", "--obs", str(obs)],
        beta_run + ["stray"],
    ]
    for argv in [[], ["--seed", "1", "--out", str(out)]]:  # no command
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert not out.exists()
    for argv in runs:
        # a run's own --seed comes later and wins
        assert main([argv[0], "--seed", "1", "--out", str(out), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert not out.exists()
    # posterior's flags are checked before either file is read, so a missing
    # prior file does not hide a bad --M
    none = str(tmp_path / "none")
    assert main(["posterior", "--c", "1", "--M", "-1", "--prior", none, "--obs", none]) == 2
    assert capsys.readouterr().err == "error: M must be >= 0\n"
    # verify names an unknown check before it looks at any flag, and a flag
    # before its range: ibp reads no --replicas
    for check, err in [
        ("typo", "unknown check 'typo'"),
        ("ibp", "--replicas does not apply to --check ibp"),
    ]:
        assert main(["verify", "--check", check, "--replicas", "1"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    # the --replicas floor of each chosen check is checked before any check runs
    monkeypatch.setattr(cli, "_CHECKS", {
        name: (_must_not_run, gated) for name, (_, gated) in cli._CHECKS.items()
    })
    for argv, err in [
        (["--check", "all", "--replicas", "3"], "4 for --check gamma-marginal"),
        (["--check", "symmetric-variance", "--replicas", "1"],
         "2 for --check symmetric-variance"),
    ]:
        assert main(["verify", *argv, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --replicas must be >= {err}\n"
        assert not out.exists()


def test_flags_take_name_equals_value(tmp_path):
    spaced = ["simulate", "--family", "beta", "--c", "1", "--K", "3", "--seed", "1"]
    joined = ["simulate", "--family=beta", "--c=1", "--K=3", "--seed=1"]
    assert run(tmp_path, "a.jsonl", spaced) == run(tmp_path, "b.jsonl", joined)


@pytest.mark.parametrize("command,flags", [
    (None, ["simulate", "truncation-table", "posterior", "verify"]),
    ("simulate", ["family", "c", "theta", "mass", "K", "rounds", "H", "replicas"]),
    ("truncation-table", ["family", "c", "mass", "K-max", "H", "M"]),
    ("posterior", ["c", "mass", "M", "K", "draws", "new-draws", "prior", "obs"]),
    ("verify", ["check", "N", "K", "H", "sigma", "replicas"]),
])
def test_help_names_every_flag(capsys, command, flags):
    # --help is read before any flag, wherever it stands, and exits 0
    argv = [command, "--K", "x", "--help"] if command else ["-h"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command:
        flags = [f"--{name}" for name in flags + ["out", "format", "seed"]]
    for name in flags:
        assert f"  {name} " in captured.out, name


def test_flag_table_matches_the_parser():
    # a misspelt flag or choice in cli._FLAGS would refuse a flag its check
    # reads, or leave a flag that only some choices read unchecked
    common = {"out", "format", "seed"}
    assert set(cli._OUTPUT_FLAGS) == common
    # outside the rows: the output flags, and each command's flags that
    # every choice reads
    shared = {
        "simulate": {"family", "mass", "K", "rounds", "replicas"},
        "truncation-table": {"family", "mass", "K-max"},
        "verify": {"check"},
    }
    for command, table in cli._FLAGS.items():
        _, _, flags = cli._COMMANDS[command]
        per_choice = {name for row in table.values() for name in row}
        assert not per_choice & shared[command]
        assert not set(flags) & common
        assert set(flags) | common == common | shared[command] | per_choice
        # an absent flag parses as None, so the rows alone give defaults
        assert all(flags[name][1] is None for name in per_choice)
        # rows that read one flag agree on its default
        for name in per_choice:
            assert len({row[name] for row in table.values() if name in row}) == 1
        if command == "verify":
            assert list(table) == list(cli._CHECKS)
        else:
            assert list(table) == list(flags["family"][0])


def test_out_of_memory_exits_2_and_writes_nothing(tmp_path, capsys):
    # a replica count too large for memory is a usage error, not a failed
    # check; the allocation is refused by a patch, not by this host
    out = tmp_path / "x.jsonl"
    runs = [
        ("levycrm.gamma.replica_masses", "Unable to allocate 21.8 TiB",
         ["verify", "--check", "gamma-marginal", "--replicas", "3000000000000"]),
        ("levycrm.beta.simulate_replicas", "",
         ["simulate", "--family", "beta", "--c", "1", "--K", "5",
          "--replicas", "100000000000"]),
    ]
    for target, message, argv in runs:
        with mock.patch(target, side_effect=MemoryError(message)):
            assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory{': ' + message if message else ''}\n"
        assert not out.exists()


def test_output_errors_exit_2_without_traceback(tmp_path):
    # an --out that cannot be opened and a stdout closed by its reader are
    # usage errors: exit 2, one error line, no traceback and no file
    def run_cli(argv, stdout, unbuffered):
        # the console script's call; PYTHONUNBUFFERED="" block-buffers stdout,
        # Python's default on a pipe
        done = _fresh_python(
            "import sys; from levycrm.cli import main; sys.exit(main(sys.argv[1:]))",
            argv, stdout, PYTHONUNBUFFERED="1" if unbuffered else "",
        )
        err = done.stderr.decode()
        assert done.returncode == 2 and not done.stdout, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return err

    beta_dense = [
        "simulate", "--family", "beta", "--c", "1", "--mass", "500", "--K", "20",
        "--replicas", "4", "--seed", "1",
    ]
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "missing" / "x.jsonl", tmp_path / "dir"):
        assert str(out) in run_cli(beta_dense + ["--out", str(out)], subprocess.PIPE, False)
    assert not (tmp_path / "missing").exists()
    assert list((tmp_path / "dir").iterdir()) == []
    # the read end closes before the child writes; block-buffered, the small
    # run's output fits stdout's buffer and fails only at the run's last flush
    small = ["simulate", "--family", "beta", "--c", "1", "--K", "2", "--seed", "1"]
    for argv in (beta_dense, small):
        for unbuffered in (False, True):
            r, w = os.pipe()
            os.close(r)
            try:
                assert "Broken pipe" in run_cli(argv, w, unbuffered)
            finally:
                os.close(w)


def test_verify_reports_an_oracle_error_as_a_failed_row(tmp_path, monkeypatch):
    # a check whose oracle fails writes one failing row under its own name,
    # and the checks after it still run
    def no_convergence(args, root):
        raise measures.OracleError("quadrature did not converge")

    monkeypatch.setitem(cli._CHECKS, "moment-closure", (no_convergence, False))
    code, data = run(tmp_path, "vo.jsonl", [
        "verify", "--check", "moment-closure", "--check", "ibp", "--N", "1000000",
        "--seed", "1",
    ])
    assert code == 1
    first, *rest = jsonl_rows(data)[1:]
    assert first == {
        "name": "moment-closure", "target": 0.0, "computed": 0.0, "tolerance": 0.0,
        "mode": "abs", "passed": False,
        "detail": "oracle error: quadrature did not converge",
    }
    assert [r["name"] for r in rest] == ["ibp/N=1000000", "ibp/monotone"]
    assert all(r["passed"] for r in rest)


def test_verify_default_passes_with_gate_reported(tmp_path):
    code, data = run(tmp_path, "v.jsonl", ["verify", "--seed", "5"])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    names = {r["name"] for r in rows}
    assert any(n.startswith("beta-density") for n in names)
    assert any(n.startswith("moment-closure") for n in names)
    assert any(n.startswith("ibp") for n in names)
    gate = [r for r in rows if r["name"].startswith("generalized-gate")]
    assert len(gate) == 3
    # gate rows report failure yet the run exits 0: informational only
    assert all(not r["passed"] for r in gate)
    assert all("fitted constant" in r["detail"] for r in gate)
    others = [r for r in rows if not r["name"].startswith("generalized-gate")]
    assert all(r["passed"] for r in others)


def test_verify_single_checks(tmp_path):
    code, data = run(tmp_path, "vi.jsonl", [
        "verify", "--check", "ibp", "--N", "1000000", "--seed", "2",
    ])
    assert code == 0
    rows = jsonl_rows(data)[1:]
    assert [r["name"] for r in rows] == ["ibp/N=1000000", "ibp/monotone"]
    code, data = run(tmp_path, "vg.jsonl", [
        "verify", "--check", "gamma-marginal", "--replicas", "300", "--seed", "11",
    ])
    assert code == 0
    row = jsonl_rows(data)[1]
    assert row["name"] == "gamma-marginal-ks"
    assert row["computed"] < row["tolerance"]


def _fresh_python(code, argv=None, stdout=subprocess.PIPE, **env_vars):
    """Run ``code`` in a new interpreter, so modules other tests imported do
    not count; with ``argv`` it gets those arguments and stdout comes back as
    bytes.  ``env_vars`` are set in its environment."""
    env = dict(os.environ, **env_vars)
    src = str(Path(levycrm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code] + (argv or []),
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=argv is None, timeout=120,
    )


def test_cli_import_does_not_load_scipy():
    res = _fresh_python("import levycrm.cli, sys; assert 'scipy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_beta_and_posterior_runs_do_not_load_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma, a start-up cost of its own;
    # numpy.random, another, serves only the tests' C Philox oracle
    prior, obs = _write_posterior_inputs(tmp_path)
    out = tmp_path / "x.jsonl"
    res = _fresh_python(
        "import sys\n"
        "from levycrm.cli import main\n"
        "assert main(['simulate', '--family', 'beta', '--c', '1', '--K', '5',\n"
        f"             '--seed', '1', '--out', {str(out)!r}]) == 0\n"
        "assert main(['posterior', '--c', '1', '--M', '2', '--K', '5', '--seed', '1',\n"
        f"             '--prior', {str(prior)!r}, '--obs', {str(obs)!r},\n"
        f"             '--out', {str(out)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'\n"
    )
    assert res.returncode == 0, res.stderr


def test_runs_do_not_load_argparse(tmp_path):
    # argparse's first parser imports gettext and locale, about half of a
    # small run's time inside main; the flag reader needs none of them
    prior, obs = _write_posterior_inputs(tmp_path)
    out = str(tmp_path / "x.jsonl")
    res = _fresh_python(
        "import sys\n"
        "from levycrm.cli import main\n"
        "assert main(['simulate', '--family', 'beta', '--c', '1', '--K', '5',\n"
        f"             '--seed', '1', '--out', {out!r}]) == 0\n"
        "assert main(['posterior', '--c', '1', '--M', '2', '--K', '5', '--seed', '1',\n"
        f"             '--prior', {str(prior)!r}, '--obs', {str(obs)!r},\n"
        f"             '--out', {out!r}]) == 0\n"
        "assert main(['verify', '--check', 'gamma-marginal', '--replicas', '20',\n"
        f"             '--seed', '1', '--out', {out!r}]) == 0\n"
        "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert res.returncode == 0, res.stderr


def test_replica_checks_do_not_load_scipy(tmp_path):
    # gamma-marginal takes its Gamma(2, 1) CDF from verify.gamma2_cdf; no
    # word read loads numpy.random either
    out = tmp_path / "v.jsonl"
    res = _fresh_python(
        "import sys\n"
        "from levycrm.cli import main\n"
        "assert main(['verify', '--check', 'gamma-marginal', '--check',\n"
        "             'symmetric-variance', '--replicas', '80', '--seed', '1',\n"
        f"             '--out', {str(out)!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'\n"
    )
    assert res.returncode == 0, res.stderr


def test_verify_names_resolve_on_access():
    # the package holds submodules only; verify loads on first access
    res = _fresh_python(
        "import sys, levycrm\n"
        "assert 'levycrm.verify' not in sys.modules\n"
        "verify = levycrm.verify\n"
        "from levycrm import verify as again\n"
        "assert verify is again is sys.modules['levycrm.verify']\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "for name in ('ks_distance', 'BetaProcessParams', 'no_such_name'):\n"
        "    try:\n"
        "        getattr(levycrm, name)\n"
        "    except AttributeError:\n"
        "        continue\n"
        "    raise SystemExit(name + ' resolved on the package')\n"
    )
    assert res.returncode == 0, res.stderr


def test_gamma_marginal_statistic_is_pinned(tmp_path):
    # the Gamma(2, 1) reference CDF moved from scipy.stats to scipy.special,
    # then to verify.gamma2_cdf; the statistic must not move by a bit
    code, data = run(tmp_path, "vk.jsonl", [
        "verify", "--check", "gamma-marginal", "--replicas", "80", "--seed", "1",
    ])
    assert code == 0
    assert b'"computed": 0.09181446402655602,' in data


def test_verify_failure_and_bad_check(tmp_path, capsys):
    # a deliberately tiny truncation cannot meet the density tolerance
    code, data = run(tmp_path, "vf.jsonl", [
        "verify", "--check", "gamma-density", "--K", "1", "--H", "1", "--seed", "3",
    ])
    assert code == 1
    assert not jsonl_rows(data)[1]["passed"]
    assert main([
        "verify", "--check", "no-such-check", "--seed", "3",
        "--out", str(tmp_path / "x.jsonl"),
    ]) == 2
    assert main([
        "verify", "--replicas", "1", "--seed", "3",
        "--out", str(tmp_path / "x.jsonl"),
    ]) == 2
    capsys.readouterr()


def _must_not_run(args, root):
    raise AssertionError("a check ran before every name and flag was validated")


def test_verify_checks_every_name_before_running_any(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHECKS", {
        name: (_must_not_run, gated) for name, (_, gated) in cli._CHECKS.items()
    })
    out = tmp_path / "x.jsonl"
    assert main([
        "verify", "--check", "gamma-marginal", "--check", "typo", "--seed", "1",
        "--out", str(out),
    ]) == 2
    assert "unknown check 'typo'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_help_lists_every_check(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "400")  # no wrapping inside a name
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = capsys.readouterr().out
    for name in [
        "beta-density", "stable-beta-density", "gamma-density", "moment-closure",
        "ibp", "generalized-gate", "gamma-marginal", "symmetric-variance",
        "'default'", "'all'",
    ]:
        assert name in text


@pytest.mark.parametrize("sigma", ["1.5", "-0.5", "nan"])
def test_verify_rejects_sigma_outside_unit_interval(tmp_path, capsys, sigma):
    # 1.5 made every partial sum NaN, which the max-error fold dropped, and
    # -0.5 divided by zero
    out = tmp_path / "x.jsonl"
    assert main([
        "verify", "--check", "stable-beta-density", "--sigma", sigma, "--seed", "1",
        "--out", str(out),
    ]) == 2
    assert "--sigma must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_infinite_H(tmp_path, capsys):
    # the partial-sum oracle needs a finite H; an absent --H still means 60
    out = tmp_path / "x.jsonl"
    assert main([
        "verify", "--check", "gamma-density", "--H", "inf", "--seed", "1",
        "--out", str(out),
    ]) == 2
    assert "finite --H" in capsys.readouterr().err
    assert not out.exists()
    code, data = run(tmp_path, "h.jsonl", [
        "verify", "--check", "gamma-density", "--seed", "1",
    ])
    assert code == 0
    assert jsonl_rows(data)[1]["detail"].endswith(", H=60")


@pytest.mark.parametrize("family,flag", [
    ("beta", "--c"), ("gamma", "--theta"), ("symmetric-gamma", "--theta"),
])
def test_simulate_rejects_mass_above_the_rate_cap(tmp_path, capsys, family, flag):
    # --mass 1e9 used to ask for about 0.5 GB of count words per stream
    out = tmp_path / "x.jsonl"
    with mock.patch.object(streams, "ragged_words") as read, \
            mock.patch.object(measures, "ragged_words") as engine_read:
        assert main([
            "simulate", "--family", family, flag, "1", "--mass", "1e9", "--K", "1",
            "--seed", "1", "--out", str(out),
        ]) == 2
    read.assert_not_called()
    engine_read.assert_not_called()
    assert "--mass" in capsys.readouterr().err
    assert not out.exists()


def test_seed_generated_when_absent(tmp_path):
    code, data = run(tmp_path, "r1.jsonl", [
        "simulate", "--family", "beta", "--c", "1", "--K", "2", "--replicas", "1",
    ])
    assert code == 0
    header = jsonl_rows(data)[0]
    assert isinstance(header["seed"], int) and header["seed"] >= 0
