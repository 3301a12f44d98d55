"""Energy-efficient power control for IR-UWB uplinks with Rake receivers.

The package has three layers:

* simulation: frequency-selective channel draws (`channel`), exact
  finite-dimensional Rake gain computation (`gains`), and the
  noncooperative power-control game with its exact equilibrium solve
  (`game`);
* prediction: large-system closed forms for the interference factors,
  equilibrium power/utility, the minimum-frames design rule and the
  partial-Rake loss (`lsa`);
* certification: finite-size and Monte Carlo oracles that validate every
  closed form against brute-force evaluation (`oracle`), wired into a CSV
  experiment CLI (`cli`).
"""

import numpy as _np

from .channel import (
    ApdpProfile,
    sample_channel_bank,
    sample_normals,
    sample_topology,
    substream,
)
from .gains import (
    LinkGains,
    RakeSelector,
    SpreadingConfig,
    link_gains,
    rake_weights,
    sinr,
)
from .game import (
    UtilityParams,
    best_response,
    closed_form_equilibrium_power,
    efficiency,
    feasibility,
    gamma_star,
    solve_equilibrium,
    utilities,
)
from .lsa import (
    LsaParams,
    loss_db,
    min_frames,
    mu,
    nu,
    predict_power,
    predict_utility,
)
from .oracle import (
    finite_mu,
    finite_nu,
    flat_mu_exact,
    flat_nu_exact,
    mc_gain_ratio,
    oracle_audit,
)

# glibc's malloc serves blocks of 128 KiB and more by mmap and unmaps them
# on free, and it hands free space above 128 KiB at the top of the heap
# back to the system, so the spectra and solve temporaries of every trial
# block would fault their pages in afresh (about 30 000 minor faults in
# `utility-gain --trials 200`, close to a third of its time). Freeing one
# mmapped block raises the mmap threshold to its size and the trim
# threshold to twice that: 2 MiB covers the (4, 8, 4000) complex spectra of
# a four-trial block at L = 2000. The block is never written, so it costs
# no resident memory, and other allocators are unaffected.
_np.empty(2 << 20, dtype=_np.uint8)

__version__ = "0.1.0"

__all__ = [
    "ApdpProfile",
    "LinkGains",
    "LsaParams",
    "RakeSelector",
    "SpreadingConfig",
    "UtilityParams",
    "best_response",
    "closed_form_equilibrium_power",
    "efficiency",
    "feasibility",
    "finite_mu",
    "finite_nu",
    "flat_mu_exact",
    "flat_nu_exact",
    "gamma_star",
    "link_gains",
    "loss_db",
    "mc_gain_ratio",
    "min_frames",
    "mu",
    "nu",
    "oracle_audit",
    "predict_power",
    "predict_utility",
    "rake_weights",
    "sample_channel_bank",
    "sample_normals",
    "sample_topology",
    "sinr",
    "solve_equilibrium",
    "substream",
    "utilities",
]
