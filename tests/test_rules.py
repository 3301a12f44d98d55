"""Input rules: one table of every refusal, and the values each rule accepts.

Each rule is one helper in rakepower._rules, and every entry point calls
it, so all of a rule's entry points refuse the same values with the same
message. The table lists each count, real-valued rule and array rule with
the values it refuses and accepts and its entry points, and the refusals
an entry point writes itself as rows of (entry point, field, bad value,
exception type, exact message). Test ids are built from the rows.

The rules' checks run one per entry point: test_game.py collects those of
the counts, the real-valued rules and the array rules, and test_channel.py
that of a channel bank's variances; the entry points' own refusals and the
layout of rakepower._rules are tested here.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import rakepower._rules as rules
from rakepower import (ApdpProfile, LinkGains, LsaParams, RakeSelector, SpreadingConfig,
                       UtilityParams, best_response, efficiency, finite_mu, finite_nu,
                       flat_mu_exact, flat_nu_exact, gamma_star, link_gains, loss_db,
                       mc_gain_ratio, mu, nu, predict_power, predict_utility,
                       sample_channel_bank, sample_topology, sinr, substream, utilities)
from rakepower.cli import ExperimentConfig, build_config
from rakepower.game import _targets
from rakepower.oracle import _profile

NAN, INF = math.nan, math.inf

_LSA_POINT = LsaParams(rho=10.0, beta=0.1, users=4, sigma_sq=1e-9,
                       spreading=SpreadingConfig(1, 100), path_count=400)
# an operating point whose interference budget is open, for the predictions
_FEASIBLE = dataclasses.replace(_LSA_POINT, spreading=SpreadingConfig(20, 100))
# a feasible point whose finite-gain target, 1.13e-3, has a packet success
# rate (1 - e^(-gamma/2))^100 that underflows to 0
_UNDERFLOW = LsaParams(rho=1.0, beta=0.001, users=1, sigma_sq=1e-12,
                       spreading=SpreadingConfig(1, 1), path_count=4)
_BANK = dict(h_sp=np.array([1.0, 1.0]), h_si=np.array([0.01, 0.01]),
             h_mai=np.array([[0.0, 0.1], [0.1, 0.0]]), sigma_sq=1e-9)
_POWERS = np.full(2, 1e-7)


def _stack(n):
    # n banks of 3 users, one (n, 3) LinkGains
    return LinkGains(np.ones((n, 3)), np.zeros((n, 3)), np.zeros((n, 3, 3)), 1e-9)


def _topology(distances):
    return sample_topology(3, *distances, substream(1, 0))


def _channel_bank(variances):
    return sample_channel_bank(ApdpProfile(4, 10.0), variances, 0, 0)


def _link_gains(bank, selector=RakeSelector(0.5)):
    return link_gains(bank, selector, SpreadingConfig(2, 8), 1e-9)


def _with(array, where, value):
    out = np.array(array, dtype=np.result_type(array, float))
    out[where] = value
    return out


# each count: (name, field, build from a count, a count it accepts, the
# least count, or None where only the type is checked, and the message
# below it where that is not "<field> must be >= <least>")
_COUNTS = [
    ("apdp_path_count", "path_count", lambda n: ApdpProfile(n, 10.0).tap_variances(1.0), 200, 1),
    ("frames", "frames", lambda n: SpreadingConfig(n, 50), 2, 1),
    ("chips_per_frame", "chips_per_frame", lambda n: SpreadingConfig(2, n), 50, 1),
    ("load_factor", "path_count", lambda n: SpreadingConfig(20, 50).load_factor(n), 200, 1),
    ("finger_count", "path_count", lambda n: RakeSelector(0.5).finger_count(n), 200, 1),
    ("packet_bits", "packet_bits", lambda n: UtilityParams(packet_bits=n), 100, 2),
    ("data_bits", "data_bits", lambda n: UtilityParams(data_bits=n), 50, 1,
     "data_bits must be in 1..packet_bits"),
    ("gamma_star", "packet_bits", lambda n: gamma_star(10.0, n), 100, 2),
    ("efficiency", "packet_bits", lambda n: efficiency(10.0, n), 100, 2),
    ("lsa_users", "users", lambda n: dataclasses.replace(_LSA_POINT, users=n), 4, 1),
    ("lsa_path_count", "path_count", lambda n: dataclasses.replace(_LSA_POINT, path_count=n),
     400, 1),
    ("profile_paths", "path_count", lambda n: _profile(n, 10.0, 0.5), 40, 2),
    ("finite_mu", "path_count", lambda n: finite_mu(n, 10.0, 0.5), 200, 2),
    ("finite_nu", "path_count", lambda n: finite_nu(n, 50, 10.0, 0.5), 200, 2),
    ("finite_nu_chips", "chips_per_frame", lambda n: finite_nu(200, n, 10.0, 0.5), 50, 1),
    ("flat_nu_exact", "path_count", lambda n: flat_nu_exact(n, 50, 10), 200, None),
    ("mc_trials", "trials", lambda n: mc_gain_ratio(40, 10.0, 0.5, trials=n), 10, 2),
    ("topology_users", "K", lambda n: sample_topology(n, 3.0, 20.0, substream(1, 0)), 8, 1),
    *((f"config_{field}", field, lambda n, field=field: ExperimentConfig(**{field: n}),
       count, least)
      for field, count, least in (("users", 8, 1), ("paths", 200, 2), ("chips", 50, 1),
                                  ("frames", 20, 1), ("trials", 1000, 1), ("seed", 12345, 0))),
]

# each real-valued rule: its wording, the values it refuses, the values it
# accepts, and its entry points as (entry, field, build from a value)
_REAL = {
    "in (0, 1]": ((NAN, 0.0, -0.5, 1.0 + 1e-12, 1.2, 1.5, 2.0, INF), (1.0,), [
        ("RakeSelector", "finger_fraction", RakeSelector),
        ("mu", "beta", lambda x: mu(10.0, x)),
        ("nu", "beta", lambda x: nu(10.0, x, 0.5)),
        ("LsaParams", "beta", lambda x: dataclasses.replace(_LSA_POINT, beta=x)),
        ("ExperimentConfig", "beta", lambda x: ExperimentConfig(betas=(0.5, x))),
    ]),
    ">= 1": ((NAN, 1.0 - 1e-12, 0.5, 0.0, -INF), (1.0,), [
        ("ApdpProfile", "decay_ratio", lambda x: ApdpProfile(8, x)),
        ("mu", "rho", lambda x: mu(x, 0.5)),
        ("nu", "rho", lambda x: nu(x, 0.5, 0.5)),
        ("LsaParams", "rho", lambda x: dataclasses.replace(_LSA_POINT, rho=x)),
    ]),
    "positive and finite": ((NAN, 0.0, -1e-9, -1.0, INF), (1.0,), [
        ("LinkGains", "sigma_sq", lambda x: LinkGains(**{**_BANK, "sigma_sq": x})),
        ("LsaParams", "sigma_sq", lambda x: dataclasses.replace(_LSA_POINT, sigma_sq=x)),
        ("ExperimentConfig", "sigma_sq", lambda x: ExperimentConfig(sigma_sq=x)),
        ("UtilityParams", "rate_bps", lambda x: UtilityParams(rate_bps=x)),
        ("UtilityParams", "max_power", lambda x: UtilityParams(max_power=x)),
        ("nu", "load", lambda x: nu(10.0, 0.5, x)),
        # the array entries of _ARRAYS, given a scalar
        ("tap_variances", "user_variances", lambda x: ApdpProfile(4, 10.0).tap_variances(x)),
        ("path_gains", "user_variances",
         lambda x: ApdpProfile(4, 10.0).path_gains(x, np.ones(4, dtype=complex))),
        ("predict_power", "h_sp", lambda x: predict_power(_FEASIBLE, x)),
        ("predict_utility", "h_sp", lambda x: predict_utility(_FEASIBLE, x)),
        ("sample_topology", "d_min", lambda x: _topology((x, 20.0))),
        ("sample_topology", "d_max", lambda x: _topology((1.0, x))),
    ]),
}

# each array rule: its wording, the entries it refuses, and its entry
# points as (entry, field, build from an array, the arrays it accepts, each
# with where the refused entry goes); the error names that position
_ARRAYS = {
    "positive and finite": ((0.0, -1.0, NAN, INF), [
        ("LinkGains", "h_sp", lambda x: LinkGains(
            x, np.zeros_like(x), np.zeros(x.shape + x.shape[-1:]), 1e-9),
         [(np.ones((2, 3)), (1, 2)), (np.ones(2), (1,))]),
        ("tap_variances", "user_variances", lambda x: ApdpProfile(4, 10.0).tap_variances(x),
         [(np.ones((2, 3)), (1, 2))]),
        ("path_gains", "user_variances", lambda x: ApdpProfile(4, 10.0).path_gains(
            x, np.ones(x.shape + (4,), dtype=complex)), [(np.ones((2, 3)), (1, 2))]),
        ("sample_channel_bank", "user_variances", _channel_bank, [(np.ones(3), (2,))]),
        ("predict_power", "h_sp", lambda x: predict_power(_FEASIBLE, x),
         [(np.ones((2, 3)), (1, 2))]),
        ("predict_utility", "h_sp", lambda x: predict_utility(_FEASIBLE, x),
         [(np.ones((2, 3)), (1, 2))]),
    ]),
    "non-negative and finite": ((-1e-7, NAN, INF), [
        ("sinr", "powers", lambda x: sinr(LinkGains(**_BANK), x, 1), [(_POWERS, (1,))]),
        ("best_response", "powers",
         lambda x: best_response(LinkGains(**_BANK), x, 1, UtilityParams()), [(_POWERS, (1,))]),
        *((entry, "powers", lambda x: utilities(LinkGains(**_BANK), x, UtilityParams()),
           [(powers, where)]) for entry, powers, where in (
               ("utilities", _POWERS, (1,)),
               ("utilities-stack", np.stack([_POWERS, _POWERS]), (1, 0)))),
        ("LinkGains", "h_si", lambda x: LinkGains(**{**_BANK, "h_si": x}),
         [(_BANK["h_si"], (1,))]),
        ("LinkGains", "h_mai", lambda x: LinkGains(**{**_BANK, "h_mai": x}),
         [(_BANK["h_mai"], (1, 0)), (_BANK["h_mai"], (0, 1))]),
    ]),
}

_VARIANCES_RULE = "user_variances must be a non-empty 1-D array"
_RHO_DB_RULE = ("rho_db must lie in [0, 600] (a non-increasing profile whose closed forms "
                "stay inside the double range)")
_FINGERS_RULE = "finger_count must be in 1..path_count"
_NON_FINITE_GAIN = "non-finite path gain at (..., user, path) "
_UNDERFLOW_RULE = "the packet success rate underflows to 0 at target SINR 0.00113"

# the refusals an entry point writes itself: (entry, field, build from a
# value, the value, exception type, message)
_OWN = [
    *(("gamma_star", "varsigma", gamma_star, v, ValueError, "varsigma must be positive")
      for v in (0.0, -2.0, NAN)),
    ("_targets", "varsigma", lambda x: _targets(x, 100), np.array([5.0, 0.0, INF]),
     ValueError, "varsigma must be positive"),
    ("LinkGains", "h_mai", lambda x: LinkGains([1.0], [0.1], x, 1e-9), np.array([[0.5]]),
     ValueError, "h_mai diagonal must be zero"),
    # link_gains names a non-finite path gain's position before any
    # transform, on a finger or past the fingers, for one selector or several
    *(("link_gains", field, lambda x, s=selector: _link_gains(x, s),
       _with(np.ones((2, 16), dtype=complex), (1, path), NAN), ValueError,
       f"{_NON_FINITE_GAIN}[[1, {path}]]")
      for field, path, selector in (("bank", 0, RakeSelector(0.5)),
                                    ("bank,selectors", 0, [RakeSelector(1.0), RakeSelector(0.5)]),
                                    ("bank", 15, RakeSelector(0.5)))),
    ("link_gains", "bank", _link_gains, [], ValueError,
     "need a (..., K, L) bank with at least one user and path"),
    ("link_gains", "method", lambda x: link_gains(np.ones((2, 16)), RakeSelector(0.5),
                                                  SpreadingConfig(2, 8), 1e-9, method=x),
     "sparse", ValueError, "unknown method 'sparse'"),
    # a stack passed the shape checks and reached numpy's float() of an array
    ("sinr", "gains", lambda g: sinr(g, np.ones(3), 0), _stack(2), ValueError,
     "gains must be one (K,) bank, not a stack of shape (2, 3)"),
    ("best_response", "gains", lambda g: best_response(g, np.ones(3), 0, UtilityParams()),
     _stack(1), ValueError, "gains must be one (K,) bank, not a stack of shape (1, 3)"),
    # an infinite d_max has no uniform draw, and 0.3 d^-2 underflows to 0
    # at 1e308 and overflows at 1e-160
    ("sample_topology", "d_min,d_max", _topology, (20.0, 3.0), ValueError,
     "need d_min <= d_max"),
    ("sample_topology", "d_max", _topology, (3.0, 1e308), ValueError,
     "the pathloss at d_max must be positive and finite"),
    ("sample_topology", "d_min", _topology, (1e-160, 1.0), ValueError,
     "the pathloss at d_min must be positive and finite"),
    *(("flat_mu_exact", "finger_count", lambda n: flat_mu_exact(10, n), n, ValueError,
       _FINGERS_RULE) for n in (0, 11)),
    *(("flat_nu_exact", "finger_count", lambda n: flat_nu_exact(10, n, 5), n, ValueError,
       _FINGERS_RULE) for n in (0, 11)),
    ("ExperimentConfig", "rho_db", lambda x: ExperimentConfig(rho_db=x), -3.0, ValueError,
     _RHO_DB_RULE),
    ("build_config", "bogus", lambda x: build_config(None, bogus=x), 1, ValueError,
     "bad configuration: ExperimentConfig.__init__() got an unexpected keyword argument "
     "'bogus'"),
    ("predict_utility", "target_sinr", lambda p: predict_utility(p, 1.0), _UNDERFLOW,
     ValueError, _UNDERFLOW_RULE),
    ("loss_db", "target_sinr", lambda p: loss_db(p, asymptotic_target=False), _UNDERFLOW,
     ValueError, _UNDERFLOW_RULE),
]


def _label(value):
    if isinstance(value, LsaParams):
        return f"rho={value.rho},beta={value.beta}"
    if isinstance(value, LinkGains):
        return f"stack{list(value.h_sp.shape)}".replace(" ", "")
    if isinstance(value, np.ndarray) and value.size > 3:  # its shape, or its non-finite entries
        bad = np.argwhere(~np.isfinite(value)).tolist()
        return (f"{bad}=nan" if bad else f"shape{list(value.shape)}").replace(" ", "")
    return repr(value).replace(" ", "").replace("\n", "")


def _refuses(build, value, exc, message):
    # every rule compares so that the accepting comparison fails on NaN
    with pytest.raises(exc) as info:
        build(value)
    assert str(info.value) == message, value


def _accepts(build, value):
    # an accepted input gives positive, finite real values
    out = build(value)
    if isinstance(out, np.ndarray) and out.dtype.kind == "f":
        assert np.all((out > 0) & np.isfinite(out)), value


@pytest.mark.parametrize("field, build, count, least, message", [
    pytest.param(field, build, count, least, *message or [None], id=name)
    for name, field, build, count, least, *message in _COUNTS])
def check_counts(field, build, count, least, message):
    # a count under its least, or NaN, raises ValueError; a fraction of one
    # or a whole float raises TypeError rather than being floored, rounded
    # up or carried into a power; an integer, numpy's included, passes
    if least is not None:
        for bad in (NAN, *sorted(v for v in {least - 1, 0, -3} if v < least)):
            _refuses(build, bad, ValueError, message or f"{field} must be >= {least}")
    for bad, kind in ((count + 0.5, "float"), (float(count), "float"),
                      (np.float64(count), "numpy.float64")):
        _refuses(build, bad, TypeError, f"'{kind}' object cannot be interpreted as an integer")
    for n in (count, np.int64(count)):
        _accepts(build, n)


@pytest.mark.parametrize("rule, field, build", [
    pytest.param(rule, field, build, id=f"{entry}-{field}")
    for rule, (*_, entries) in _REAL.items() for entry, field, build in entries])
def check_real_rules(rule, field, build):
    refused, accepted, _ = _REAL[rule]
    for bad in refused:
        _refuses(build, bad, ValueError, f"{field} must be {rule}")
    for value in accepted:
        _accepts(build, value)


def _array_check(rule):
    refused, entries = _ARRAYS[rule]

    @pytest.mark.parametrize("field, build, accepted", [
        pytest.param(field, build, accepted, id=f"{entry}-{field}")
        for entry, field, build, accepted in entries])
    def check(field, build, accepted):
        for valid, where in accepted:
            for bad in refused:
                _refuses(build, _with(valid, where, bad), ValueError,
                         f"{field} must be {rule}; it is not at {[list(where)]}")
            _accepts(build, valid)
    return check


check_positive_arrays = _array_check("positive and finite")
check_nonnegative_arrays = _array_check("non-negative and finite")


@pytest.mark.parametrize("variances", [[-1.0], [0.0], [1e-3, -1e-3], [INF], [NAN],
                                       [1e-3, NAN], [], [[1e-3]], np.float64(1e-3)])
def check_channel_bank_variances(variances):
    # a bank takes a non-empty 1-D array, whose last entry here then fails
    # the positive rule by position
    v = np.asarray(variances)
    _refuses(_channel_bank, variances, ValueError,
             f"user_variances must be positive and finite; it is not at [[{v.size - 1}]]"
             if v.ndim == 1 and v.size else _VARIANCES_RULE)


@pytest.mark.parametrize("build, value, exc, message", [
    pytest.param(build, bad, exc, message, id=f"{entry}-{field}-{_label(bad)}")
    for entry, field, build, bad, exc, message in _OWN])
def test_refusal_message(build, value, exc, message):
    _refuses(build, value, exc, message)


def test_the_widest_distances_are_accepted():
    # the widest distances whose pathloss is a positive, finite double
    _accepts(_topology, (1e-150, 1e150))


def _modules():
    for path in sorted(Path(rules.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def test_the_count_rule_is_written_once():
    # _rules._count is the one check that a count is an integer; the only
    # other operator.index calls are on counts whose range is two-sided.
    # _rules holds the six helpers alone, gains, game and lsa import
    # nothing from channel, and the others only its profiles and draws
    where, channel_imports = [], {}
    for stem, tree in _modules():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                where.append((stem, "from operator import ..."))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "channel":
                channel_imports[stem] = sorted(alias.name for alias in node.names)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "operator.index":
                scope, up = [], node
                while up in parent:
                    up = parent[up]
                    if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
                        scope.insert(0, up.name)
                where.append((stem, ".".join(scope), ast.unparse(parent[node])))
        if stem == "_rules":
            assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)] == [
                "_count", "_fraction", "_decay_ratio", "_entrywise", "_positive", "_nonnegative"]
    assert sorted(where) == [
        ("_rules", "_count", "operator.index(value)"),
        ("oracle", "_flat_ratio", "map(operator.index, (path_count, finger_count))"),
    ]
    assert channel_imports == {
        "__init__": ["ApdpProfile", "sample_channel_bank", "sample_topology", "substream"],
        "cli": ["ApdpProfile", "_trial_blocks"],
        "oracle": ["ApdpProfile", "_trial_normals"],
    }


def test_each_real_valued_rule_is_written_once():
    # the fraction, decay-ratio, positive-and-finite and non-negative
    # comparisons appear only in their _rules helpers, the positive one in
    # scalar and array form, and every entry point calls these. The other
    # comparisons with 0 from above are a two-sided count range, varsigma's
    # own rule (it may be inf) and masks on results; isfinite tests path
    # gains and closed-form values, neither a positive rule
    patterns = {"fraction": r"0 < \S+ <= 1(\.0)?", "decay ratio": r"\S+ >= 1(\.0)?",
                "positive": r"0(\.0)? < .+|.+ > 0(\.0)?|.+ < (np|math)\.inf",
                "non-negative": r"0(\.0)? <= \S+|.+ >= 0(\.0)?"}
    where = {rule: set() for rule in (*patterns, "isfinite")}
    for stem, tree in _modules():
        for scope in tree.body:  # the module's functions and classes
            for node in ast.walk(scope):
                text, site = ast.unparse(node), (stem, getattr(scope, "name", None))
                for rule, pattern in patterns.items():
                    if isinstance(node, ast.Compare) and re.fullmatch(pattern, text):
                        where[rule].add((*site, text))
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("isfinite"):
                    where["isfinite"].add((*site, text))
    assert where == {
        "fraction": {("_rules", "_fraction", "0 < value <= 1")},
        "decay ratio": {("_rules", "_decay_ratio", "value >= 1")},
        "positive": {("_rules", "_fraction", "0 < value <= 1"),
                     ("_rules", "_positive", "0 < value < np.inf"),
                     ("_rules", "_positive", "0 < value"),
                     ("_rules", "_positive", "value < np.inf"),
                     ("_rules", "_nonnegative", "value < np.inf"),
                     ("game", "UtilityParams", "0 < self.data_bits <= self.packet_bits"),
                     ("game", "_targets", "vs > 0"),
                     ("game", "utilities", "p > 0"),
                     ("game", "_outage", "p > 0"),
                     ("cli", "run_utility_vs_gain", "np.asarray(chunk) > 0")},
        "non-negative": {("_rules", "_nonnegative", "0 <= value")},
        "isfinite": {("gains", "link_gains", "np.isfinite(A)"),
                     ("lsa", "_finite", "math.isfinite(value)")}}
