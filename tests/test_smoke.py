"""Smoke runs of the studies: each argument set runs through main() in
process and must exit 0.

pyproject.toml turns every warning into an error, as python -W error
does, so a numpy overflow, divide-by-zero or invalid-value warning fails
the run and no study passes on a silent inf or nan. A warning at import
time is the one thing an in-process run cannot see;
test_cli::test_usage_error_exits_one_without_a_traceback imports the
whole package under python -W error -m rakepower for that.

Argument sets that another test already runs with the same arguments are
not repeated here: gamma-curve (test_cli::test_gamma_curve_csv); mu-nu,
loss-beta and validate at 1600 paths by default, at 0 dB and at beta 0.7
over 2000 chips (test_golden; with validate these runs cover all three
benchmark studies, and at 400 paths the slowest limit row is still 2%
off, a finite-size error, so 1600; at 0 dB validate covers the
flat-profile branches, and at beta 0.7 and 2000 chips over 1600 paths the
fingers cover more than half the taps, 2P > L, at a load of 1.25, in
region 5, away from the beta 0.1 and 1 of the other audits); and
validate at 8000 paths, the benchmark's audit size
(test_surface::test_benchmark_output_checks_pass, at the default seed).
"""

import pytest

from rakepower.cli import main

_SMALL = ["--users", "4", "--paths", "40", "--chips", "10"]

SMOKE = [
    # the four closed-form studies run at their defaults; apdp and
    # utility-gain also run at 600 dB, the largest accepted decay ratio,
    # where the closed forms' fifth powers of rho reach 1e300
    ["apdp"],
    ["apdp", "--rho-db", "600"],
    # nine trials cross the edges of the four-trial blocks, which start at
    # trial 0: utility-gain carries its trial 0 in the first block, so its
    # ten trials end in a block of two, and at three trials trial 0 and
    # every nmse trial share one block that is both first and last
    ["utility-gain", *_SMALL, "--trials", "9"],
    ["utility-gain", *_SMALL, "--trials", "3"],
    ["utility-gain", *_SMALL, "--trials", "3", "--rho-db", "600"],
    # one gains call per block for all three fractions: 41 paths give an
    # odd transform length (81) for the real self-interference transform,
    # and beta 1 takes the path-gain spectrum in place of a weight spectrum
    ["utility-gain", "--users", "4", "--paths", "41", "--chips", "10", "--trials", "9",
     "--beta", "1.0", "--beta", "0.5", "--beta", "0.1"],
    ["po-frames", *_SMALL, "--trials", "9"],
    # full combining through the broadcast LinkGains stack of po-frames
    ["po-frames", *_SMALL, "--trials", "9", "--beta", "1.0"],
    # beta 1e-20: rho^beta rounds to 1, so nu has no value at 10 and 20 dB
    # (nan cells)
    ["mu-nu", "--beta", "1e-20"],
    # the streams are derived from numpy's SeedSequence mixing on uint32
    # arrays: a seed of 2^32 is two entropy words, the multi-word seed path
    ["utility-gain", *_SMALL, "--trials", "9", "--seed", "4294967296"],
    # the streams are hashed 64 trials at a time: 130 trials cross two
    # chunk boundaries and end in a chunk of two
    ["po-frames", *_SMALL, "--trials", "130"],
    # a seed of 2^130 is five words, longer than the pool: numpy's own
    # SeedSequence pool for it, then the key words mixed in on uint32
    # arrays, end to end across the hashing chunks; on numpy 1.24 this
    # meets value-based casting with a numpy-made uint32 pool
    ["po-frames", *_SMALL, "--trials", "130", "--seed", str(2**130)],
    # utility-gain solves 64 trials at a time: its 131 trials (0 to 130)
    # make chunks of 64, 64 and 3, and the last chunk is one partial block
    ["utility-gain", *_SMALL, "--trials", "130"],
    # at 2000 paths a block's spectra reach the 2 MiB malloc threshold
    ["po-frames", "--paths", "2000", "--chips", "500", "--trials", "5"],
    # near-flat decay: nu's branches on decimals and the oracle's expm1
    # closed forms against the finite sums
    ["validate", "--paths", "1600", "--rho-db", "0.0001"],
    # decay so close to flat that nu takes its flat form although
    # min(beta, load) ln(rho) is below the branches' cutoff
    ["validate", "--paths", "1600", "--rho-db", "1e-12"],
    # the same in the predictions: finite utility_pred and nmse wherever
    # the operating point is feasible
    ["utility-gain", "--users", "2", "--paths", "20", "--chips", "5", "--trials", "2",
     "--rho-db", "1e-12"],
    # 16000 paths at 600 dB: the largest audit size at the largest
    # accepted decay, where every row passes
    ["validate", "--paths", "16000", "--rho-db", "600"],
    # at beta 0.5 over 1600 paths 2P = L, the boundary between the two
    # halves of the overlap-count case table
    ["validate", "--paths", "1600", "--beta", "0.5"],
    # at beta 0.3 the operating point is also the (fingers, chips) point
    # of a decomposition row
    ["validate", "--paths", "1600", "--beta", "0.3"],
    # full combining sweeps every tap through the factorization row, its
    # widest sweep of any smoke run
    ["validate", "--paths", "4000", "--beta", "1.0"],
]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=" ".join(argv)) for argv in SMOKE])
def test_study_exits_zero(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
