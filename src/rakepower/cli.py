"""Command-line experiment driver.

Each subcommand evaluates one study end to end and writes a CSV: the
target-SINR curve, the power-decay profile, the interference coefficient
surfaces, outage probability against the frame count, per-user utilities
against channel gain for one shared draw (trial 0, which rides in the
first trial block), the partial-combining penalty against the combining
fraction, and the full numerical audit. The CSV goes to --out, or to
stdout without it; status lines go to stderr. Outputs start with a
single '#' comment line recording the configuration, the seed, and the
package version; everything after that line is deterministic for a
fixed seed. Each subcommand takes --out, --config and only the flags
and config-file keys its runner reads.

Exit codes: 0 on success, 1 on usage or configuration errors (an unread
flag or config key among them), 2 when the validation audit fails a row.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import click
import numpy as np

from . import __version__
from ._rules import _count, _fraction, _positive
from .channel import ApdpProfile, _trial_blocks
from .gains import LinkGains, RakeSelector, SpreadingConfig, link_gains
from .game import _outage, _targets, solve_equilibrium
from .lsa import _UTILITY, LsaParams, loss_db, min_frames, mu, nu, predict_utility
from .oracle import oracle_audit

_RHO_DB_GRID = (0.0, 10.0, 20.0)
# the combining fractions mu-nu and loss-beta sweep without --beta
_BETA_GRID = tuple(np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 6))
_LOAD_GRID = (0.25, 1.0, 4.0)
_BETA_BANKS = (1.0, 0.5, 0.3, 0.1)
_LOSS_RHO_DB = (0.0, 10.0)
_LOSS_CHIPS = (50, 200)
# the largest decay ratio accepted, in dB: the closed forms raise the ratio
# to powers up to 5 (rho^(2 + 2 beta + load) and (rho^beta - 1)^2 rho^(2 +
# load) with beta, load <= 1), and at 600 dB rho^5 = 1e300 stays inside
# the double range (about 1.8e308), where 620 dB would overflow
_RHO_DB_MAX = 600.0
# trials per (T, K, L) block of draws and spectra in the simulating
# studies: peak RSS grows by about 0.27 MB per trial held, and large stacks
# are memory-bound
_TRIAL_BLOCK = 4
# trials per equilibrium solve in utility-gain, a multiple of _TRIAL_BLOCK:
# its inputs are the blocks' gains, K^2 + 2K doubles per bank, and the
# solve costs more per call than per bank. At the reference system it took
# 73, 33, 25 and 22 us per trial on stacks of 4, 16, 32 and 64 trials, at
# traced peaks of 37, 140, 278 and 489 KiB
_SOLVE_TRIALS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's knobs; defaults follow the reference system."""

    users: int = 8
    paths: int = 200
    chips: int = 50
    frames: int = 20
    rho_db: float = 10.0
    betas: tuple[float, ...] = ()
    trials: int = 1000
    seed: int = 12345
    out: str | None = None
    sigma_sq: float = 5e-16

    def __post_init__(self):
        for name, least in (("users", 1), ("paths", 2), ("chips", 1), ("frames", 1),
                            ("trials", 1), ("seed", 0)):
            _count(getattr(self, name), name, least)
        # each trial index is one stream key word, and utility-gain's run 0 to trials
        if not self.trials <= 2**32 - 1:
            raise ValueError(f"trials must be >= 1 and <= {2**32 - 1}")
        if not 0 <= self.rho_db <= _RHO_DB_MAX:
            raise ValueError(f"rho_db must lie in [0, {_RHO_DB_MAX:g}] (a non-increasing "
                             "profile whose closed forms stay inside the double range)")
        _positive(self.sigma_sq, "sigma_sq")
        for beta in self.betas:
            _fraction(beta, "beta")

    @property
    def rho(self) -> float:
        return 10.0 ** (self.rho_db / 10.0)

    def lsa_params(self, beta: float) -> LsaParams:
        return LsaParams(rho=self.rho, beta=beta, users=self.users, sigma_sq=self.sigma_sq,
                         spreading=SpreadingConfig(self.frames, self.chips),
                         path_count=self.paths)


def _floats(val: str) -> tuple[float, ...]:
    return tuple(float(x) for x in val.replace(",", " ").split())


# each config-file key: the field it sets and the parser of its value
_KEYS = {**{key: (key, int) for key in ("users", "paths", "chips", "frames", "trials", "seed")},
         "rho_db": ("rho_db", float), "sigma_sq": ("sigma_sq", float),
         "beta": ("betas", _floats), "betas": ("betas", _floats), "out": ("out", str)}


def load_config_file(path: str) -> dict:
    """Parse a flat key=value config file into constructor arguments; a
    field set twice (beta and betas both set betas) is an error."""
    data: dict = {}
    lines: dict[str, int] = {}  # the line that set each field
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        val = val.strip()
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        field, parse = _KEYS[key]
        if field in lines:
            raise ValueError(f"{path}:{lineno}: {field} already set on line {lines[field]}")
        lines[field] = lineno
        try:
            data[field] = parse(val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return data


def build_config(config_file: str | None = None, **flags) -> tuple[ExperimentConfig, frozenset]:
    """Merge config-file values and CLI flags; flags win.

    Returns the config plus the set of explicitly provided field names,
    so commands can distinguish defaults from deliberate choices.
    """
    data = load_config_file(config_file) if config_file else {}
    for key, value in flags.items():
        if key == "betas":
            if value:
                data["betas"] = tuple(value)
        elif value is not None:
            data[key] = value
    explicit = frozenset(data)
    try:
        return ExperimentConfig(**data), explicit
    except TypeError as exc:
        raise ValueError(f"bad configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# runners

def run_gamma_curve(config: ExperimentConfig):
    """Target SINR against the self-interference headroom ratio."""
    varsigma = np.logspace(0.0, 12.0, 121)
    targets = _targets(varsigma, _UTILITY.packet_bits)
    rows = [{"varsigma": vs, "target_sinr": g} for vs, g in zip(varsigma, targets)]
    return ["varsigma", "target_sinr"], rows


def run_apdp(config: ExperimentConfig):
    """Average power-decay profile for a unit-energy user."""
    var = ApdpProfile(config.paths, config.rho).tap_variances(1.0)
    fields = ["tap", "variance", "variance_db"]
    rows = [{"tap": l + 1, "variance": var[l],
             "variance_db": 10.0 * math.log10(var[l])}
            for l in range(config.paths)]
    return fields, rows


def run_mu_nu_curves(config: ExperimentConfig):
    """Interference coefficient surfaces over decay, fraction, and load."""
    betas = config.betas or _BETA_GRID
    fields = ["rho_db", "load", "beta", "mu", "nu"]
    rows = []
    for rho_db in _RHO_DB_GRID:
        rho = dataclasses.replace(config, rho_db=rho_db).rho
        for load in _LOAD_GRID:
            for beta in betas:
                rows.append({"rho_db": rho_db, "load": load, "beta": beta,
                             "mu": _or_nan(mu, rho, beta),
                             "nu": _or_nan(nu, rho, beta, load)})
    return fields, rows


def _or_nan(closed_form, *args):
    """A closed form's value, or nan where it has none (it raises ValueError)."""
    try:
        return closed_form(*args)
    except ValueError:
        return math.nan


def _one_beta(config: ExperimentConfig, study: str) -> float:
    """The single combining fraction a study runs at: 0.1 unless set."""
    if len(config.betas) > 1:
        raise click.ClickException(f"{study} runs at one --beta, got "
                                   + ", ".join(map(_fmt, config.betas)))
    return config.betas[0] if config.betas else 0.1


def _certify(certified: bool, trials: range) -> None:
    """Raise unless a block's equilibria passed their fixed-point certificate."""
    if not certified:
        raise RuntimeError(f"equilibrium for trials {trials.start}..{trials.stop - 1} "
                           "failed its fixed-point certificate")


def run_po_vs_frames(config: ExperimentConfig):
    """Outage probability against the frame count, per decay ratio.

    A trial is in outage when any user's equilibrium power sits at the
    cap. Channels and distances are redrawn every trial from substreams
    independent of the frame count, so the per-trial outage indicator is
    non-increasing in the frame count. Trials go in blocks of a few, each
    drawn once and rescaled to every decay ratio: one unit-spreading
    link_gains call per ratio, with h_si and h_mai then scaled by 1/frames
    for every frame count. Outage needs no equilibrium search: with the
    best response p -> N p + b, a bank is served exactly when the linear
    solve of (I - N) p = b gives 0 < p < cap for every user, one solve
    per (trial, frame count) system; a served bank whose power fails the
    fixed-point certificate raises instead of counting. It runs at one
    combining fraction and at 0, 10 and 20 dB.
    """
    beta = _one_beta(config, "po-frames")
    frames_max = max(25, config.frames)
    selector = RakeSelector(beta)
    spreading_unit = SpreadingConfig(frames=1, chips_per_frame=config.chips)
    frame_counts = np.arange(1, frames_max + 1)
    points = [dataclasses.replace(config, rho_db=rho_db) for rho_db in _RHO_DB_GRID]
    profiles = [ApdpProfile(config.paths, point.rho) for point in points]
    outages = np.zeros((len(points), frames_max), dtype=np.int64)
    for trials, variances, normals in _trial_blocks(
            config.seed, range(config.trials), config.users, config.paths, _TRIAL_BLOCK):
        units = [link_gains(p.path_gains(variances, normals), selector, spreading_unit,
                            config.sigma_sq) for p in profiles]
        # (ratios, trials, 1, ...) stacks: dividing by the frame counts fills
        # the frame axis, and h_sp broadcasts over it
        h_sp, h_si, h_mai = (np.stack(h)[:, :, None] for h in
                             zip(*((g.h_sp, g.h_si, g.h_mai) for g in units)))
        stack = LinkGains(h_sp, h_si / frame_counts[:, None],
                          h_mai / frame_counts[:, None, None], config.sigma_sq)
        outage, certified = _outage(stack, _UTILITY)
        _certify(certified, trials)
        outages += outage.sum(axis=1)
    fields = ["rho_db", "frames", "outage_fraction", "min_frames"]
    rows = []
    for point, counts in zip(points, outages):
        analytic = _or_nan(min_frames, point.lsa_params(beta))
        rows += [{"rho_db": point.rho_db, "frames": nf, "min_frames": analytic,
                  "outage_fraction": counts[nf - 1] / config.trials}
                 for nf in range(1, frames_max + 1)]
    return fields, rows


def _chunk_gains(config: ExperimentConfig, chunk: range, profile: ApdpProfile,
                 selectors: Sequence[RakeSelector],
                 spreading: SpreadingConfig) -> tuple[np.ndarray, LinkGains]:
    """A chunk of trials' (T, K) channel energies and (S, T, K[, K]) gains,
    taken block by block, keeping only each block's energies and gains."""
    energies, stacks = [], []
    for _, variances, normals in _trial_blocks(config.seed, chunk, config.users,
                                               config.paths, _TRIAL_BLOCK):
        block = profile.path_gains(variances, normals)
        energies.append(np.sum(np.abs(block) ** 2, axis=-1))
        stacks.append(link_gains(block, selectors, spreading, config.sigma_sq))
    fields = zip(*((g.h_sp, g.h_si, g.h_mai) for g in stacks))
    return np.concatenate(energies), LinkGains(
        *(np.concatenate(field, axis=1) for field in fields), config.sigma_sq)


def run_utility_vs_gain(config: ExperimentConfig):
    """Equilibrium utilities against channel gain for one shared draw.

    All combining fractions see the same distances and path gains (drawn
    from the trial-0 substreams of the configured seed), so the spread
    across fractions reflects combining alone. The nmse column reports,
    per fraction, the mean squared relative error of the full-combining
    prediction scaled down by the combining penalty against simulated
    utilities over fresh trials (trial indices 1 onward). Trials are drawn
    in blocks of a few, trial 0 in the first: each block is drawn once and
    gets one link_gains call for every fraction (the path-gain spectra are
    taken once and shared). Only the blocks' energies and gains are kept,
    and each chunk of 64 trials gets one solve of its (fractions, trials,
    users) stack. A trial with a clamped user at a fraction is left out of
    that fraction's nmse (its utility measures the power cap, not the
    prediction); the count left out goes to stderr. A fraction
    with every trial left out, or with an infeasible large-system
    operating point, gets a nan nmse and a stderr line saying why. A
    solve that fails its fixed-point certificate raises.
    """
    betas = config.betas or _BETA_BANKS
    selectors = [RakeSelector(beta) for beta in betas]
    profile = ApdpProfile(config.paths, config.rho)
    params_full = config.lsa_params(1.0)
    penalties = 10.0 ** (np.array([_or_nan(loss_db, config.lsa_params(beta))
                                   for beta in betas]) / 10.0)
    sq_err_sums = np.zeros(len(betas))
    kept = np.zeros(len(betas), dtype=np.int64)
    every_trial = range(config.trials + 1)
    for first in range(0, len(every_trial), _SOLVE_TRIALS):
        chunk = every_trial[first:first + _SOLVE_TRIALS]
        energy, stack = _chunk_gains(config, chunk, profile, selectors, params_full.spreading)
        pred_full = _or_nan(predict_utility, params_full, energy)
        outcome = solve_equilibrium(stack, _UTILITY)
        _certify(outcome.converged, chunk)
        if chunk.start == 0:
            # copies: views would keep the first chunk's arrays alive
            channel_gain, h_sp0 = energy[0].copy(), stack.h_sp[:, 0].copy()
            powers0, utilities0 = outcome.powers[:, 0].copy(), outcome.utilities[:, 0].copy()
        u = outcome.utilities
        sq_err = ((pred_full / penalties[:, None, None] - u) / u) ** 2
        keep = ~outcome.clamped.any(axis=-1) & (np.asarray(chunk) > 0)
        sq_err_sums += np.where(keep[..., None], sq_err, 0.0).sum(axis=(1, 2))
        kept += keep.sum(axis=1)
        # this chunk's gains and equilibria go before the next chunk's spectra
        del energy, stack, pred_full, outcome, u, sq_err
    excluded = config.trials - kept
    with np.errstate(invalid="ignore"):
        nmses = sq_err_sums / (kept * config.users)
    click.echo("trials left out of nmse (a clamped user): "
               + ", ".join(f"beta={_fmt(b)}: {n}" for b, n in zip(betas, excluded)),
               err=True)
    for beta, penalty, n in zip(betas, penalties, excluded):
        if math.isnan(penalty):
            click.echo(f"nmse at beta={_fmt(beta)} is nan: the operating point is infeasible "
                       "or has no finite nu, so there is no combining penalty", err=True)
        if n == config.trials:
            click.echo(f"nmse at beta={_fmt(beta)} is nan: every one of the "
                       f"{n} trials has a clamped user", err=True)

    fields = ["beta", "user", "channel_gain", "power_w", "utility_sim",
              "utility_pred", "nmse"]
    rows = []
    for b, (beta, nmse) in enumerate(zip(betas, nmses)):
        pred0 = np.broadcast_to(_or_nan(predict_utility, config.lsa_params(beta),
                                        h_sp0[b]), config.users)
        for k in range(config.users):
            rows.append({"beta": beta, "user": k, "channel_gain": channel_gain[k],
                         "power_w": powers0[b, k], "utility_sim": utilities0[b, k],
                         "utility_pred": pred0[k], "nmse": float(nmse)})
    return fields, rows


def run_loss_vs_beta(config: ExperimentConfig):
    """Combining penalty against the combining fraction.

    Sweeps the fraction at 0 and 10 dB and at 50 and 200 chips per frame;
    operating points whose interference budget closes (no feasible target)
    yield nan rather than a row omission, keeping the grid rectangular.
    """
    betas = config.betas or _BETA_GRID
    fields = ["rho_db", "chips", "beta", "loss_db"]
    rows = []
    for rho_db in _LOSS_RHO_DB:
        for chips in _LOSS_CHIPS:
            point = dataclasses.replace(config, rho_db=rho_db, chips=chips)
            rows += [{"rho_db": rho_db, "chips": chips, "beta": beta,
                      "loss_db": _or_nan(loss_db, point.lsa_params(beta))} for beta in betas]
    return fields, rows


def _audit_config(config: ExperimentConfig, explicit: frozenset) -> ExperimentConfig:
    """The configuration validate audits: 4000 paths, a quarter as many chips (at least
    one), 500 trials and beta 0.1 where not set explicitly; one beta at most."""
    paths = config.paths if "paths" in explicit else 4000
    return dataclasses.replace(
        config, paths=paths,
        chips=config.chips if "chips" in explicit else max(1, round(0.25 * paths)),
        trials=config.trials if "trials" in explicit else 500,
        betas=(_one_beta(config, "validate"),))


def run_validate(config: ExperimentConfig):
    """Full numerical audit of the closed forms at one operating point.

    config is the resolved audit point, one combining fraction included.
    A point the audit refuses (fewer than 3 paths, fewer than 2 Monte
    Carlo trials or 3 fingers at their 400 paths, no finite nu, an
    infeasible point, where the interference mass exceeds the processing
    gain, or a target whose packet success rate underflows to 0) is a
    usage error naming the point and the audit's reason. A steep decay
    puts the energy on few taps, so the limit rows need more paths to
    reach their closed forms: the default 4000 paths pass up to 150 dB (7
    limit rows fail at 200 dB), 8000 up to 300 dB (7 fail at 600 dB) and
    16000 up to 600 dB, while 400 paths fail 19 at 600 dB. The identity
    and mc rows pass in all of these.
    """
    (beta,) = config.betas
    point = (f"paths={config.paths} chips={config.chips} users={config.users} "
             f"frames={config.frames} rho_db={_fmt(config.rho_db)} beta={_fmt(beta)}")
    try:
        audit = oracle_audit(config.lsa_params(beta), mc_trials=config.trials,
                             master_seed=config.seed)
    except ValueError as exc:
        raise click.ClickException(f"cannot audit {point}: {exc}") from exc
    fields = ["name", "kind", "value", "reference", "rel_err", "tol",
              "passed", "note"]
    return fields, [{f: getattr(r, f) for f in fields} for r in audit]


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _comment_line(config: ExperimentConfig, reads: Sequence[str]) -> str:
    """The package version and the config fields the command reads."""
    values = {"rho_db": _fmt(config.rho_db), "sigma_sq": _fmt(config.sigma_sq),
              "betas": ",".join(_fmt(b) for b in config.betas) or "default"}
    parts = [f"{field}={values.get(field, getattr(config, field))}"
             for field in _EVERY_FIELD if field in reads]
    return "# " + " ".join([*parts, f"version={__version__}"])


def write_csv(path: str | None, config: ExperimentConfig, fields: Sequence[str],
              rows: Sequence[dict], reads: Sequence[str]) -> str:
    """Write the comment line (the config fields in reads), header and rows
    to path, or to stdout without one; returns where they went."""
    try:
        out = open(path, "w", newline="") if path else nullcontext(sys.stdout)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from exc
    with out as fh:
        fh.write(_comment_line(config, reads) + "\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])
    return path or "stdout"


# ---------------------------------------------------------------------------
# click wiring

# the study options by config field; sigma_sq is a config-file key only
_OPTIONS = {
    "users": click.option("--users", type=int, help="number of uplink users"),
    "paths": click.option("--paths", type=int, help="resolvable paths per channel"),
    "chips": click.option("--chips", type=int, help="chips per frame"),
    "frames": click.option("--frames", type=int, help="frames per symbol"),
    "rho_db": click.option("--rho-db", "rho_db", type=float,
                           help="power-decay ratio in dB"),
    "betas": click.option("--beta", "betas", type=float, multiple=True,
                          help="combining fraction(s); repeatable"),
    "trials": click.option("--trials", type=int, help="Monte Carlo trials"),
    "seed": click.option("--seed", type=int, help="master seed"),
}
_EVERY_FIELD = (*_OPTIONS, "sigma_sq")


def _options(reads: Sequence[str]):
    """The flags of the fields a command reads, then --out and --config."""
    options = [_OPTIONS[field] for field in reads if field in _OPTIONS] + [
        click.option("--out", type=str, help="output CSV path (default: stdout)"),
        click.option("--config", "config_file", type=str,
                     help="flat key=value config file; flags override")]

    def decorate(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return decorate


def _configure(name: str, reads: Sequence[str], flags) -> tuple[ExperimentConfig, frozenset]:
    """The command's config; a config-file key it does not read is an error."""
    config_file = flags.pop("config_file", None)
    try:
        config, explicit = build_config(config_file, **flags)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    unread = sorted(explicit - {*reads, "out"})
    if unread:
        raise click.ClickException(f"{config_file}: {name} does not read "
                                   + ", ".join(unread))
    return config, explicit


@click.group()
def cli():
    """Power-control experiments for partial-combining impulse-radio uplinks."""


def _simple_command(name: str, runner, reads: Sequence[str], resolve=lambda config: config):
    @cli.command(name, help=runner.__doc__)
    @_options(reads)
    def _cmd(**flags):
        config = resolve(_configure(name, reads, flags)[0])
        fields, rows = runner(config)
        where = write_csv(config.out, config, fields, rows, reads)
        click.echo(f"wrote {where} ({len(rows)} rows)", err=True)
        return 0


_simple_command("gamma-curve", run_gamma_curve, ())
_simple_command("apdp", run_apdp, ("paths", "rho_db"))
_simple_command("mu-nu", run_mu_nu_curves, ("betas",))
_simple_command("po-frames", run_po_vs_frames,
                ("users", "paths", "chips", "frames", "betas", "trials", "seed", "sigma_sq"),
                # the comment line records the one fraction po-frames runs at
                resolve=lambda c: dataclasses.replace(c, betas=(_one_beta(c, "po-frames"),)))
_simple_command("utility-gain", run_utility_vs_gain, _EVERY_FIELD)
_simple_command("loss-beta", run_loss_vs_beta, ("users", "paths", "frames", "betas"))


@cli.command("validate", help=run_validate.__doc__)
@_options(_EVERY_FIELD)
def _cmd_validate(**flags):
    config = _audit_config(*_configure("validate", _EVERY_FIELD, flags))
    fields, rows = run_validate(config)
    where = write_csv(config.out, config, fields, rows, _EVERY_FIELD)
    for row in rows:
        verdict = "PASS" if row["passed"] else "FAIL"
        click.echo(f"{verdict} {row['name']}: value={_fmt(row['value'])} "
                   f"reference={_fmt(row['reference'])} "
                   f"rel_err={_fmt(row['rel_err'])} tol={_fmt(row['tol'])}",
                   err=True)
    failed = sum(1 for row in rows if not row["passed"])
    click.echo(f"wrote {where} ({len(rows)} rows, {failed} failures)", err=True)
    return 2 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI without exiting the interpreter; returns the exit code.
    click itself returns the code of an exit such as --help's."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
