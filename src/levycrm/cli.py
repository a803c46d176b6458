"""Command-line front end.

Four commands:

* ``simulate``          draw truncated beta / gamma / symmetric-gamma
                        processes, one JSONL record per atom
* ``truncation-table``  closed-form truncation error tables
* ``posterior``         beta-process posterior resampling from a prior
                        draw file and an observation-count file
* ``verify``            run checks from one table (``_CHECKS``) by name,
                        or the ``default`` and ``all`` groups; every name
                        is validated before any check runs

Output is a header record followed by data records, as JSONL (default)
or CSV.  Every float is printed with 17 significant digits, so JSONL and
CSV encodings of one run carry identical numeric values, and a repeated
run with the same seed is byte-identical.  Every header is built by
``_header``: the command, the run's parameters, then the seed (generated
when not supplied; ``truncation-table`` draws nothing and records null),
the library version, and the applicable truncation error.
Records go out block by block, a block being one record kind's rows held
as columns and filled once per block: one ``%`` of its row template,
repeated once per row; the header is a block of constants, JSON in either
format.  Every block is checked before the output opens, so a run that
fails writes nothing.

``posterior`` reads its two input files line by line.  Each prior atom is
checked and counted, never held, so a big prior file costs constant
memory; the observations are kept, as they are the update's input.

Replica r always owns stream path [r], so its atoms do not depend on how
many other replicas are drawn.

Each command declares each flag once, in ``_COMMANDS``, and ``_parse``
alone reads ``argv`` against it: ``--name value`` or ``--name=value``,
spelled out in full.  ``simulate``, ``truncation-table`` and ``verify`` read
the flags of each choice (a ``--family``, or a check) and their defaults
from ``_FLAGS``, and refuse a flag that no chosen family or check reads.
Parameter ranges, the seed's too, are the library's checks alone; the CLI
checks only what the library cannot know: ``--rounds``, the ``--H`` text,
``posterior --draws``, the input files and ``verify``'s own flags.

Exit codes: 0 success (``--help`` too), 1 verification failure, 2 usage,
parameter or file errors (a closed stdout too), each one ``error:`` line,
decided in ``main`` alone.

The verify module is imported only by the ``verify`` command's functions,
so the other commands start without it.  scipy loads only inside the
checks that need it (the density, moment-closure, ibp and gate checks);
``gamma-marginal`` and ``symmetric-variance`` run without it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from functools import cache, partial
from types import SimpleNamespace

import numpy as np

from . import __version__, beta, gamma, posterior, truncation
from .measures import OracleError
from .posterior import InvalidPriorError, ObservationSet
from .streams import RandomStream, RateCapError


class CLIError(ValueError):
    """Bad flags or malformed input files; exits with code 2."""


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return f"{float(x):.17g}"


def _constant(v, jsonl: bool) -> str:
    """One constant as JSON text, or as a CSV field (lists ``;``-joined)."""
    if v is None:
        return "null" if jsonl else ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        if jsonl:
            return "[" + ", ".join(_constant(x, True) for x in v) + "]"
        return ";".join(_fmt_float(x) for x in v)
    if not jsonl:
        s = str(v)
        return '"' + s.replace('"', '""') + '"' if any(ch in s for ch in ",\"\n") else s
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


@cache
def _json_key(name: str) -> str:
    """A field's ``%``-escaped JSON key text, made once per name."""
    return json.dumps(name).replace("%", "%%") + ": "


def _block_template(block: dict, columns: list, jsonl: bool):
    """A block's ``%`` template and the 1-D arrays that fill it row by row.

    A numpy array is a column with one entry per row; a 2-D one holds a
    location per row.  Any other value is a constant, formatted once and
    baked into the template.
    """
    fields, cols = [], []
    for name in block if jsonl else columns:
        v = block.get(name)
        if isinstance(v, np.ndarray):
            fmt = "%.17g" if v.dtype.kind == "f" else "%d"
            if fmt == "%.17g" and not np.isfinite(v).all():
                raise ValueError("refusing to serialize a non-finite number")
            per_dim = np.atleast_2d(v.T)  # (dim, rows); a 1-D column has dim 1
            cols.extend(per_dim)
            field = (", " if jsonl else ";").join([fmt] * len(per_dim))
            field = f"[{field}]" if jsonl and v.ndim == 2 else field
        else:
            field = _constant(v, jsonl).replace("%", "%%")
        if jsonl:
            field = _json_key(name) + field
        fields.append(field)
    line = "{" + ", ".join(fields) + "}" if jsonl else ",".join(fields)
    return line + "\n", cols


def _emit(args, header: dict, blocks: list, columns: list) -> None:
    jsonl = args.format == "jsonl"
    # the header is a block of constants, written as JSON in either format
    head = _block_template(header, [], True)[0] % ()
    if not jsonl:
        head = "# " + head + ",".join(columns) + "\n"
    # every block is checked before the output opens, so a failure writes nothing
    filled = [_block_template(b, columns, jsonl) for b in blocks]
    with open(args.out, "w", encoding="utf-8", newline="") if args.out else (
        contextlib.nullcontext(sys.stdout)
    ) as f:
        f.write(head)
        for template, cols in filled:
            # one % fills the block: the template repeated once per row, and
            # the columns' values interleaved row by row
            n = len(cols[0]) if cols else 1
            flat = [None] * (n * len(cols))
            for j, c in enumerate(cols):
                flat[j::len(cols)] = c.tolist()
            f.write((template * n) % tuple(flat))
        f.flush()  # a closed stdout fails here, inside the run, not at exit


def _root(args) -> RandomStream:
    """The run's root stream, at --seed or else at a generated seed."""
    if args.seed is None:
        return RandomStream(int.from_bytes(os.urandom(8), "big") >> 1)
    return RandomStream(args.seed)


def _header(args, seed, l1=None, **fields) -> dict:
    """Header record: the command, ``fields`` in order, then the seed, the
    library version and the truncation error (null where none applies)."""
    return {
        "command": args.command,
        **fields,
        "seed": seed,
        "version": __version__,
        "truncation_l1": l1,
    }


def _parse_h(raw) -> int | None:
    """--H value: a positive integer, or the literal inf (None here), as
    ``gamma._finite_h`` reads it."""
    try:
        return gamma._finite_h(math.inf if raw in (None, "inf") else int(raw))
    except ValueError:
        raise CLIError(f"--H must be a positive integer or 'inf', got {raw!r}")


# The flags each choice reads, per command: flag -> default, or ... when the
# flag is required.  A choice is a --family, or a check that verify runs.
# ``_check_flags`` refuses a given flag that no chosen row reads, and a
# missing required one; every other absent flag takes its row's default.
_FLAGS = {
    "simulate": {
        "beta": {"c": ...},
        "gamma": {"theta": ..., "H": None},
        "symmetric-gamma": {"theta": ..., "H": None},
    },
    "truncation-table": {"beta": {"c": ..., "M": None}, "gamma": {"H": None}},
    "verify": {
        "beta-density": {"K": None},
        "stable-beta-density": {"K": None, "sigma": 0.5},
        "gamma-density": {"K": None, "H": 60},
        "moment-closure": {},
        "ibp": {"N": 10**6},
        "generalized-gate": {},
        "gamma-marginal": {"replicas": 2000},
        "symmetric-variance": {"replicas": 2000},
    },
}


def _check_flags(args, option: str, choices: list) -> None:
    table = _FLAGS[args.command]
    reads = {}
    for choice in choices:
        reads.update(table[choice])
    chosen = f"{option} {', '.join(choices)}"
    for name in dict.fromkeys(name for flags in table.values() for name in flags):
        if getattr(args, name) is None:
            if reads.get(name) is ...:
                raise CLIError(f"{chosen} needs --{name}")
            setattr(args, name, reads.get(name))
        elif name not in reads:
            raise CLIError(f"--{name} does not apply to {chosen}")


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    _check_flags(args, "--family", [args.family])
    family = args.family
    if args.rounds is not None:
        if args.K is not None:
            raise CLIError("--K and --rounds exclude each other")
        if args.rounds < 1:
            raise CLIError("--rounds must be >= 1")
        K = args.rounds - (family == "beta")  # gamma rounds start at k = 1
    elif args.K is not None:
        K = args.K
    else:
        raise CLIError("simulate needs --K (last round index) or --rounds")
    root = _root(args)

    if family == "beta":
        params = beta.BetaProcessParams.homogeneous(args.c, args.mass)
        l1 = truncation.beta_l1_error(params, K)
        header = _header(
            args, root.seed, l1, family=family, c=float(args.c), mass=float(args.mass),
            K=K, replicas=args.replicas,
        )
        simulate = partial(beta.simulate_replicas, params, K, root, args.replicas)
    else:  # gamma or symmetric-gamma, the rest of the --family choices
        H = _parse_h(args.H)
        params = gamma.GammaProcessParams.homogeneous(args.theta, args.mass)
        l1 = truncation.gamma_l1_error(K, H)
        header = _header(
            args, root.seed, l1, family=family, theta=float(args.theta),
            mass=float(args.mass), K=K, H="inf" if H is None else H,
            replicas=args.replicas,
        )
        if H is None:
            # simulation cannot run infinitely many sub-rounds; the cap is
            # part of the recorded config so the run stays reproducible
            header["H_sim_cap"] = gamma.SUBROUND_CAP
        simulate = partial(
            gamma.simulate_replicas, params, K, H, root, args.replicas,
            signed=family != "gamma",
        )
    try:
        draws = simulate()
    except RateCapError as exc:
        # the busiest stream's rate grows with --mass; the cap bounds its memory
        raise CLIError(f"--mass {args.mass:g} is too large: {exc}") from exc

    blocks = [
        {
            "replica": r,
            "family": family,
            "k": draw.round_k,
            # beta atoms carry no sub-round index; h serializes as null
            "h": None if family == "beta" else draw.subround_h,
            "location": draw.locations,
            "jump": draw.jumps,
            "origin": "prior",
        }
        for r, draw in enumerate(draws)
    ]
    columns = ["replica", "family", "k", "h", "location", "jump", "origin"]
    _emit(args, header, blocks, columns)
    return 0


# -------------------------------------------------------- truncation-table


def cmd_truncation_table(args) -> int:
    _check_flags(args, "--family", [args.family])
    # the table draws nothing: without --seed the header records null
    seed = None if args.seed is None else _root(args).seed
    if args.family == "beta":
        params = beta.BetaProcessParams.homogeneous(args.c, args.mass)
        header = _header(
            args, seed, family="beta", c=float(args.c), mass=float(args.mass),
            M=args.M, K_max=args.K_max,
        )
        table = truncation.beta_table(params, args.K_max, args.M)
    else:  # gamma, the other --family choice
        H = _parse_h(args.H)
        h = "inf" if H is None else H
        header = _header(
            args, seed, family="gamma", mass=float(args.mass), H=h, K_max=args.K_max
        )
        cols = truncation.gamma_table(args.mass, args.K_max, H)
        table = {
            "K": cols["K"],
            "H": h,
            "l1_error": cols["l1_error"],
            "marginal_bound": None,
            "expected_atoms": cols["expected_atoms"],
        }
    _emit(args, header, [table], list(table))
    return 0


# ---------------------------------------------------------------- posterior


def _read_jsonl(path):
    """Yield ``(lineno, record)`` for each data record of a JSONL file, one
    line at a time; blank lines and header records are skipped.  A byte that
    is not UTF-8 comes through as a lone surrogate, refused at its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            s = line.strip()
            if not s:
                continue
            try:
                s.encode("utf-8")
                rec = json.loads(s)
            except UnicodeEncodeError:
                raise CLIError(f"parse error at {path}:{lineno}: not valid UTF-8")
            except json.JSONDecodeError as exc:
                raise CLIError(f"parse error at {path}:{lineno}: {exc.msg}")
            if not isinstance(rec, dict):
                raise CLIError(f"parse error at {path}:{lineno}: not a JSON object")
            if "command" not in rec:  # a header line names its command
                yield lineno, rec


def _field(path, lineno, rec, name, kinds, kindname):
    if name not in rec:
        raise CLIError(f"parse error at {path}:{lineno}: missing field {name!r}")
    v = rec[name]
    if not isinstance(v, kinds) or isinstance(v, bool):
        raise CLIError(
            f"parse error at {path}:{lineno}: field {name!r} must be {kindname}"
        )
    return v


def _location(path, lineno, rec, domain) -> list:
    """The record's location, checked to be a point of ``domain``."""
    loc = _field(path, lineno, rec, "location", list, "an array")
    if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in loc):
        raise CLIError(
            f"parse error at {path}:{lineno}: location entries must be numbers"
        )
    if len(loc) != domain.dim:
        raise CLIError(
            f"parse error at {path}:{lineno}: location must have dimension "
            f"{domain.dim}"
        )
    # false for NaN, so a non-finite entry never passes
    if not all(lo <= x <= hi for x, (lo, hi) in zip(loc, domain.bounds.tolist())):
        raise CLIError(
            f"parse error at {path}:{lineno}: location {loc} lies outside {domain!r}"
        )
    return loc


def _read_prior_draw(path, domain) -> range:
    """Check each atom of a prior draw file as it streams; return the range of
    their indices, whose length is their count (``bench/tracer.py`` reads it
    with ``len()``)."""
    n = 0
    for lineno, rec in _read_jsonl(path):
        _location(path, lineno, rec, domain)
        jump = _field(path, lineno, rec, "jump", (int, float), "a number")
        if not 0 < jump < 1:  # compared exactly: a huge integer never reaches float()
            raise InvalidPriorError(
                f"prior jump at {path}:{lineno} lies outside (0, 1)"
            )
        k = rec.get("k")
        if k is not None and (
            not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < 2**63
        ):
            raise CLIError(
                f"parse error at {path}:{lineno}: "
                "field 'k' must be a nonnegative integer"
            )
        n += 1
    if not n:
        raise CLIError(f"{path} holds no prior atoms")
    return range(n)


def _read_observations(path, M: int, domain) -> ObservationSet:
    locs, counts, seen = [], [], {}
    for lineno, rec in _read_jsonl(path):
        locs.append(_location(path, lineno, rec, domain))
        first = seen.setdefault(tuple(locs[-1]), lineno)
        if first != lineno:
            raise CLIError(
                f"parse error at {path}:{lineno}: location repeats line {first}"
            )
        count = _field(path, lineno, rec, "count", int, "an integer")
        if not 0 <= count <= M:
            raise CLIError(
                f"parse error at {path}:{lineno}: count must lie in [0, {M}]"
            )
        counts.append(count)
    if not locs:
        raise CLIError(f"{path} holds no observations")
    return ObservationSet(M=M, locations=np.asarray(locs), counts=counts)


def cmd_posterior(args) -> int:
    if args.draws < 1:  # the summary averages over the draws
        raise CLIError("--draws must be >= 1")
    new_draws = args.draws if args.new_draws is None else args.new_draws
    c, M, K = float(args.c), args.M, args.K
    a = posterior._concentration(c, M, K)  # checked before either file is read
    root = _root(args)

    prior = beta.BetaProcessParams.homogeneous(c, args.mass)
    prior_draw = _read_prior_draw(args.prior, prior.domain)
    obs = _read_observations(args.obs, M, prior.domain)
    pp = posterior.posterior_params(prior, obs)

    header = _header(
        args, root.seed, family="beta", c=c, mass=float(args.mass), M=M, K=K,
        draws=args.draws, new_draws=new_draws, prior_atoms=len(prior_draw),
    )
    blocks = []
    # row i draws from root.child(0, i).child(d)
    resampled = posterior.resample_observed_jumps(
        c, M, obs.counts, K, root.child(0), args.draws
    )
    # numpy reduces each contiguous row with the pairwise sum a 1-D call
    # uses, so each atom's summaries are its row's own, bit for bit
    means = resampled.mean(axis=1)
    variances = resampled.var(axis=1, ddof=1) if args.draws > 1 else np.zeros(len(obs))
    above = (resampled > 1.0).mean(axis=1)
    truncated = {
        m: posterior.resample_truncated_expectation(c, M, m, K)
        for m in set(obs.counts.tolist())
    }
    draw = np.arange(args.draws)
    for i, (values, m_i) in enumerate(zip(resampled, obs.counts.tolist())):
        blocks.append(
            {"record": "observed-draw", "atom": i, "draw": draw, "value": values}
        )
        # the undecomposed posterior Beta(m_i, c+M-m_i) exists only for
        # 0 < m_i < c+M; its variance is reported for comparison, never
        # asserted, since the round sum matches it in mean alone
        ref_var = (
            m_i * (a - m_i) / (a * a * (a + 1.0)) if 0 < m_i < a else None
        )
        blocks.append(
            {
                "record": "atom-summary",
                "atom": i,
                "location": obs.locations[i].tolist(),
                "count": m_i,
                "empirical_mean": float(means[i]),
                "empirical_var": float(variances[i]),
                "posterior_mean": m_i / a,
                "beta_ref_var": ref_var,
                "truncated_mean": truncated[m_i],
                "frac_above_one": float(above[i]),
            }
        )
    new_ks, new_vals = posterior.sample_new_jumps(c, M, K, root.child(1), new_draws)
    blocks.append(
        {"record": "new-draw", "draw": np.arange(new_draws), "k": new_ks,
         "value": new_vals}
    )
    blocks.append(
        {
            "record": "summary",
            "c_post": a,
            "base_mass": pp.total_base_mass,
            "observed_atoms": len(obs),
            "prior_equivalent": M == 0,
        }
    )
    columns = [
        "record",
        "atom",
        "draw",
        "k",
        "location",
        "count",
        "value",
        "empirical_mean",
        "empirical_var",
        "posterior_mean",
        "beta_ref_var",
        "truncated_mean",
        "frac_above_one",
        "c_post",
        "base_mass",
        "observed_atoms",
        "prior_equivalent",
    ]
    _emit(args, header, blocks, columns)
    return 0


# ------------------------------------------------------------------- verify


def _check_density(args, root, family):
    """Density rows for ``family`` "beta", "stable-beta" (at --sigma) or
    "gamma": the max relative error of the partial sum against the closed
    form over a grid, K chosen per point from the tail unless --K fixes it.
    """
    from . import verify
    log_margin = math.log(1e-7)  # per-point tail used to pick K from the bound
    if family == "gamma":
        grid, theta, H = np.linspace(0.05, 5.0, 50), 1.0, _parse_h(args.H)
        cases = [{"theta": theta}]
        # the k-tail dominates and decays like exp(-p(K+1)/theta)
        k_for = lambda p: max(1, math.ceil(-log_margin * theta / p))
    else:
        grid, H = np.linspace(0.05, 0.95, 50), None
        sigma = {"sigma": args.sigma} if family == "stable-beta" else {}
        cases = [{"c": c, **sigma} for c in (0.5, 1.0, 3.0)]
        # beta-family partial sums have exact relative error (1-x)^(K+1)
        k_for = lambda x: max(0, math.ceil(log_margin / math.log1p(-x)))
    ks = [k_for(x) if args.K is None else args.K for x in grid]
    rows = []
    for params in cases:
        worst = 0.0
        for x, K in zip(grid, ks):
            target = verify.levy_density(family, params, x)
            part = verify.decomposition_density_partial_sum(family, params, x, K, H)
            worst = max(worst, abs(part.value - target) / target)
        detail = f"max relative error over {len(grid)}-point grid, K up to {max(ks)}"
        if H is not None:
            detail += f", H={H}"
        label = ",".join(f"{key}={value:g}" for key, value in params.items())
        name = f"{family}-density/{label}"
        rows.append(verify.make_report(name, 0.0, worst, 1e-6, "abs", detail))
    return rows


def _check_moment_closure(args, root):
    from . import verify
    rows = []
    K = 10**4
    for c in (1.0, 3.0):
        params = beta.BetaProcessParams.homogeneous(c, 1.0)
        for label, A in (("domain", None), ("[0,0.3]", (0.0, 0.3))):
            mean, var = beta.cumulative_round_moments(params, K, A)
            for r, kind, computed in ((1, "mean", mean), (2, "variance", var)):
                target = verify.moment_oracle("beta", params, A, r)
                name = f"moment-closure/c={c:g},A={label},{kind}"
                rows.append(verify.make_report(
                    name, target, computed, 1e-3, "rel", f"round sum K={K} vs quadrature"
                ))
    return rows


def _check_ibp(args, root):
    from . import verify
    grid = np.linspace(0.1, 0.9, 9)
    c, mass = 1.0, 1.0
    ns = sorted({10**3, 10**4, 10**5, args.N})
    errs = []
    for n in ns:
        worst = 0.0
        for x in grid:
            target = verify.levy_density("beta", {"c": c}, x)
            approx = beta.ibp_levy_density(n, c, mass, x)
            worst = max(worst, abs(approx - target) / target)
        errs.append(worst)
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    return [
        verify.make_report(f"ibp/N={args.N}", 0.0, errs[ns.index(args.N)], 1e-3, "abs",
                           "max relative error over pi in {0.1,...,0.9}"),
        verify.make_report("ibp/monotone", 1.0, 1.0 if decreasing else 0.0, 0.0, "abs",
                           "errors " + ", ".join(_fmt_float(e) for e in errs)),
    ]


def _check_gamma_marginal(args, root):
    from . import verify
    params = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    K, H = 199, 40
    masses = gamma.replica_masses(params, K, H, root.child(0), args.replicas)
    # bit for bit the scipy.special.gammainc(2, x) that scipy.stats uses
    res = verify.ks_distance(
        masses, lambda x: [verify.gamma2_cdf(v) for v in x.tolist()]
    )
    return [
        verify.VerificationReport(
            name="gamma-marginal-ks",
            target=0.0,
            computed=res.statistic,
            tolerance=res.critical_value,
            mode="abs",
            passed=res.passed,
            detail=f"total mass vs Gamma(2,1), n={res.n}, K={K}, H={H}",
        )
    ]


def _check_symmetric_variance(args, root):
    from . import verify
    params = gamma.GammaProcessParams.homogeneous(1.0, 1.0)
    K, H = 100, 30
    masses = gamma.replica_masses(
        params, K, H, root.child(1), args.replicas, signed=True
    )
    mom = verify.monte_carlo_moments(masses)
    target_var = gamma.symmetric_variance(params, K, H)
    return [
        verify.make_report("symmetric-gamma/mean", 0.0, mom.mean, 4.0 * mom.se_mean,
                           "abs", f"signed mass over {mom.n} replicas"),
        verify.make_report("symmetric-gamma/variance", target_var, mom.variance,
                           4.0 * mom.se_variance, "abs",
                           f"truncation-adjusted target at K={K}, H={H}"),
    ]


def _check_generalized_gate(args, root):
    from . import verify
    rows = []
    for s in (0.1, 0.5, 0.9):
        gate = verify.generalized_gamma_gate(s)
        rows.append(
            verify.VerificationReport(
                name=f"generalized-gate/sigma={s:g}",
                target=0.0,
                computed=gate.max_rel_err_printed,
                tolerance=verify.GATE_PRINTED_TOL,
                mode="abs",
                passed=gate.printed_all_ok,
                detail=(
                    f"gated, never fails the run; fitted constant "
                    f"{_fmt_float(gate.fitted_constant)}; corrected variant "
                    f"max rel err {_fmt_float(gate.max_rel_err_corrected)} "
                    f"({'ok' if gate.corrected_all_ok else 'bad'})"
                ),
            )
        )
    return rows


# Every check, in run order: name -> (run(args, root), gated).  The first six
# make up the 'default' group; the last two simulate --replicas draws.  A
# gated check is informational: its failures never drive the exit code.
_CHECKS = {
    "beta-density": (partial(_check_density, family="beta"), False),
    "stable-beta-density": (partial(_check_density, family="stable-beta"), False),
    "gamma-density": (partial(_check_density, family="gamma"), False),
    "moment-closure": (_check_moment_closure, False),
    "ibp": (_check_ibp, False),
    "generalized-gate": (_check_generalized_gate, True),
    # looked up when called, so a wrapper bound to the module name (as
    # bench/tracer.py binds one) sees the call
    "gamma-marginal": (lambda args, root: _check_gamma_marginal(args, root), False),
    "symmetric-variance": (_check_symmetric_variance, False),
}
_GROUPS = {"default": list(_CHECKS)[:6], "all": list(_CHECKS)}


def cmd_verify(args) -> int:
    from . import verify
    names = []
    for item in args.check or ["default"]:
        names.extend(_GROUPS.get(item, [item]))
    names = list(dict.fromkeys(names))  # first occurrence wins
    for name in names:
        if name not in _CHECKS:
            raise CLIError(f"unknown check {name!r}")
    _check_flags(args, "--check", names)
    # a flag no chosen check reads is None here; below 4 samples the KS
    # critical value exceeds 1, so the KS test could not fail
    for name, floor in (("gamma-marginal", 4), ("symmetric-variance", 2)):
        if name in names and args.replicas < floor:
            raise CLIError(f"--replicas must be >= {floor} for --check {name}")
    if args.sigma is not None and not 0.0 <= args.sigma < 1.0:
        raise CLIError("--sigma must lie in [0, 1)")
    if args.H is not None and _parse_h(args.H) is None:
        raise CLIError(
            "verify needs a finite --H: the gamma partial-sum oracle sums sub-rounds "
            f"h = 1..H (omit --H for H = {_FLAGS['verify']['gamma-density']['H']})"
        )
    root = _root(args)

    reports, failed = [], False
    for name in names:
        run, gated = _CHECKS[name]
        try:
            rows = run(args, root)
        except OracleError as exc:
            detail = f"oracle error: {exc}"
            rows = [verify.VerificationReport(name, 0.0, 0.0, 0.0, "abs", False, detail)]
        reports.extend(rows)
        failed = failed or not (gated or all(rep.passed for rep in rows))

    records = [rep._asdict() for rep in reports]
    columns = list(verify.VerificationReport._fields)
    _emit(args, _header(args, root.seed, checks=names), records, columns)
    return 1 if failed else 0


# --------------------------------------------------------------- arg wiring

# Each command's handler, help and flags, each flag once: name -> (kind,
# default or ... if required, help).  A kind is int, float, str, a tuple of
# choices, or list (repeatable).  A flag that _FLAGS reads per choice is None
# here, so its row alone gives its default.  --K-max sets attribute K_max.
_OUTPUT_FLAGS = {
    "out": (str, None, "output path (default: stdout)"),
    "format": (("jsonl", "csv"), "jsonl", "output format"),
    "seed": (int, None, "stream seed; generated if absent"),
}
_COMMANDS = {
    "simulate": (cmd_simulate, "draw truncated processes", {
        "family": (tuple(_FLAGS["simulate"]), ..., "process family"),
        "c": (float, None, "beta concentration"),
        "theta": (float, None, "gamma scale"),
        "mass": (float, 1.0, "base measure mass"),
        "K": (int, None, "last round index (beta 0..K, gamma 1..K)"),
        "rounds": (int, None, "number of rounds (--K N-1 for beta, N for gamma)"),
        "H": (str, None, "sub-round cutoff or 'inf' (the default)"),
        "replicas": (int, 1, "independent draws, replica r on stream [r]"),
    }),
    "truncation-table": (cmd_truncation_table, "closed-form error tables", {
        "family": (tuple(_FLAGS["truncation-table"]), ..., "process family"),
        "c": (float, None, "beta concentration"),
        "mass": (float, 1.0, "base measure mass"),
        "K-max": (int, 20, "last truncation level"),
        "H": (str, None, "sub-round cutoff or 'inf' (the default)"),
        "M": (int, None, "data size for the marginal bound"),
    }),
    "posterior": (cmd_posterior, "posterior resampling workflow", {
        "c": (float, ..., "prior concentration"),
        "mass": (float, 1.0, "base measure mass"),
        "M": (int, ..., "Bernoulli draw count"),
        "K": (int, 1000, "round truncation"),
        "draws": (int, 1000, "draws of each observed jump"),
        "new-draws": (int, None, "draws of a new jump (default: --draws)"),
        "prior": (str, ..., "prior draw JSONL file"),
        "obs": (str, ..., "observation-count JSONL file"),
    }),
    "verify": (cmd_verify, "run the numerical check suite", {
        "check": (list, None, "check name, 'default' or 'all' (repeatable); "
                  "checks: " + ", ".join(_CHECKS)),
        "N": (int, None, "feature-count size"),
        "K": (int, None, "fixed K for density checks"),
        "H": (str, None, "fixed finite H for gamma density checks"),
        "sigma": (float, None, "stable-beta discount"),
        "replicas": (int, None, "simulated replicas"),
    }),
}


def _usage(command) -> str:
    """--help's text: a known command's flags, else the command list."""
    if command not in _COMMANDS:
        return "usage: levycrm COMMAND [--flag value ...]\n\n" + "".join(
            f"  {name:<18}{text}\n" for name, (_, text, _) in _COMMANDS.items())
    _, text, flags = _COMMANDS[command]
    out = f"usage: levycrm {command} [--flag value ...]\n\n{text}\n\n"
    for name, (kind, default, help_) in {**flags, **_OUTPUT_FLAGS}.items():
        rows = {row.get(name) for row in _FLAGS.get(command, {}).values()} - {None, ...}
        default = rows.pop() if default is None and len(rows) == 1 else default
        kind = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else kind.__name__.upper()
        note = {...: " (required)", None: ""}.get(default, f" (default {default})")
        out += f"  --{name} {kind}\n      {help_}{note}\n"
    return out


def _parse(argv) -> SimpleNamespace:
    """The handlers' namespace from ``argv``: the command, then each flag as
    ``--name value`` or ``--name=value``, spelled out in full.  A repeated
    flag's last value wins, and a list flag appends."""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        print(_usage(command), end="")
        raise SystemExit(0)
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if argv else "no command"
        raise CLIError(f"{what}; the first argument is one of {', '.join(_COMMANDS)}")
    func, _, flags = _COMMANDS[command]
    flags = {**flags, **_OUTPUT_FLAGS}
    values = {name: default for name, (_, default, _) in flags.items()}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in flags:
            raise CLIError(f"unknown flag {flag!r} for {command}" if arg.startswith("-")
                           else f"unexpected argument {arg!r}")
        kind = flags[name][0]
        if not eq and (value := next(rest, "--")).startswith("--"):
            raise CLIError(f"{flag} needs a value")
        if isinstance(kind, tuple) and value not in kind:
            raise CLIError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        try:
            values[name] = [*(values[name] or []), value] if kind is list else (
                value if isinstance(kind, tuple) else kind(value))
        except ValueError:
            kind = "an integer" if kind is int else "a number"
            raise CLIError(f"{flag} must be {kind}, got {value!r}") from None
    for name, value in values.items():
        if value is ...:
            raise CLIError(f"{command} needs --{name}")
    values = {name.replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, func=func, **values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # CLIError and library errors are ValueErrors
        if isinstance(exc, BrokenPipeError):  # its unsent rest would fail at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a run too large for memory is refused, not failed
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
