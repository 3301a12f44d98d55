"""Golden outputs: small studies against CSVs recorded from earlier code.

The files under golden/ were written by the code that evaluated the link
gains lag by lag with per-pair correlations and found equilibria by
Jacobi iteration. Two parts were re-recorded from the exact active-set
equilibrium solve, each traced to Jacobi's stopping rule: the power_w,
utility_sim and nmse columns of utility_gain.csv (Jacobi stopped 1.4e-10
from the fixed point; run to a 1e-15 step it agrees with the new values
to 1e-14), and the 0 dB, 21-frame outage in po_frames.csv (one trial hit
the 10000-iteration cap unconverged although its fixed point sits at
0.08% of the power cap). Five cells of validate.csv were re-recorded when
the oracle dropped its copies of the closed forms: the value and rel_err
of collision_weight_cases (1.1102230246251565e-16 to 0.0, since the
direct min form is no longer squared through a square root), and the
note of self_lag_mass_region1, self_lag_mass_region3 and
self_lag_mass_region4, which lost a clause quoting a near-miss
transcription variant. mu_nu.csv and loss_beta.csv (the default
coefficient and penalty grids) were recorded before the oracle's lag sums
moved to FFT and block correlations. validate_flat.csv (rho 0 dB) and
validate_full.csv (beta 1) were recorded from the oracle that still
packaged its profile arrays in a dataclass and chose its self-lag route
by a method argument; they cover the flat-profile branches of the
density and lag-mass closed forms and the factorization check at rho 1.
validate_high.csv (beta 0.7 at load 1.25, so 2P > L at the operating
point) was recorded from the oracle that still split its audit into two
calls; it covers the cross-mass closed forms away from beta 0.1 and 1.
Any later route must reproduce them:
floats to 1e-10 relative; keys, outage counts, verdicts and notes exactly;
and the elementwise deviation rows of validate.csv bit for bit. The
comment line is skipped because it records the package version.
"""

import csv
import math
from pathlib import Path

import pytest

from rakepower.cli import main

GOLDEN = Path(__file__).parent / "golden"

# file -> (CLI arguments, columns compared as floats)
CASES = {
    "utility_gain.csv": (
        ["utility-gain", "--users", "4", "--paths", "80", "--chips", "20",
         "--trials", "20", "--beta", "0.5", "--beta", "0.1", "--seed", "7"],
        ("channel_gain", "power_w", "utility_sim", "utility_pred", "nmse")),
    # outage_fraction is an outage count over the trial count: exact
    "po_frames.csv": (
        ["po-frames", "--users", "4", "--paths", "80", "--chips", "20",
         "--trials", "10", "--seed", "7"],
        ()),
    "validate.csv": (["validate", "--paths", "1600"],
                     ("value", "reference", "rel_err", "tol")),
    "validate_flat.csv": (["validate", "--paths", "1600", "--rho-db", "0"],
                          ("value", "reference", "rel_err", "tol")),
    "validate_full.csv": (["validate", "--paths", "1600", "--beta", "1.0"],
                          ("value", "reference", "rel_err", "tol")),
    # 2P > L at the operating point, load 1.25 in region 5
    "validate_high.csv": (["validate", "--paths", "1600", "--beta", "0.7", "--chips", "2000"],
                          ("value", "reference", "rel_err", "tol")),
    "mu_nu.csv": (["mu-nu"], ("mu", "nu")),
    # loss_db is nan where the interference budget closes
    "loss_beta.csv": (["loss-beta"], ("loss_db",)),
}
RTOL = 1e-10
# rel_err is itself a relative error, dimensionless and often at roundoff
# level, so its own tolerance is absolute
ATOL = {"rel_err": 1e-10}
# validate rows holding a largest elementwise deviation: compared as text
EXACT_ROWS = ("self_lag_weight_factorization", "overlap_count_table_",
              "lag_gram_diagonal_", "collision_weight_cases")


def _data(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# ")
    return list(csv.reader(lines[1:]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_study_matches_golden(name, tmp_path):
    args, float_cols = CASES[name]
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    want, got = _data(GOLDEN / name), _data(out)
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    for want_row, got_row in zip(want[1:], got[1:]):
        for col, w, g in zip(header, want_row, got_row):
            if col not in float_cols or want_row[0].startswith(EXACT_ROWS):
                assert g == w, (name, col, want_row)
                continue
            fw, fg = float(w), float(g)
            assert (math.isnan(fw) and math.isnan(fg)) or math.isclose(
                fg, fw, rel_tol=RTOL, abs_tol=ATOL.get(col, 0.0)), (name, col, w, g)
