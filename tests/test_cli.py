"""Experiment driver: exit codes, CSV contract, config handling."""

import csv
import dataclasses
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rakepower.channel as channel
import rakepower.cli as cli
import rakepower.game as game
import rakepower.oracle as oracle
from rakepower import (ApdpProfile, LsaParams, RakeSelector, SpreadingConfig,
                       UtilityParams, __version__, gamma_star, link_gains, loss_db,
                       mu, nu, predict_utility, sample_channel_bank, sample_topology,
                       solve_equilibrium, substream)
from rakepower.cli import (ExperimentConfig, build_config, load_config_file,
                           main, run_gamma_curve, run_po_vs_frames,
                           run_utility_vs_gain)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    reader = csv.DictReader(lines[1:])
    return lines[0], list(reader)


def test_gamma_curve_csv(tmp_path):
    out = tmp_path / "gamma.csv"
    assert main(["gamma-curve", "--out", str(out)]) == 0
    comment, rows = _read_csv(out)
    assert "version=" in comment
    assert len(rows) == 121
    targets = [float(r["target_sinr"]) for r in rows]
    ratios = [float(r["varsigma"]) for r in rows]
    assert all(a < b for a, b in zip(targets, targets[1:]))
    assert all(t < v for t, v in zip(targets, ratios))
    assert targets[-1] == pytest.approx(12.949200759178689, rel=1e-6)
    assert targets[0] == pytest.approx(gamma_star(1.0), rel=1e-12)


def test_apdp_csv(tmp_path):
    out = tmp_path / "apdp.csv"
    assert main(["apdp", "--paths", "40", "--rho-db", "10", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 40
    db = [float(r["variance_db"]) for r in rows]
    steps = np.diff(db)
    assert np.allclose(steps, -10.0 / 39.0, rtol=1e-9)
    assert float(rows[0]["variance"]) == 1.0


def test_mu_nu_csv_values(tmp_path):
    out = tmp_path / "munu.csv"
    assert main(["mu-nu", "--beta", "0.3", "--beta", "0.5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    # 3 decay ratios x 3 loads x 2 fractions
    assert len(rows) == 18
    for r in rows:
        rho = 10.0 ** (float(r["rho_db"]) / 10.0)
        assert float(r["mu"]) == pytest.approx(mu(rho, float(r["beta"])), rel=1e-12)
        assert float(r["nu"]) == pytest.approx(
            nu(rho, float(r["beta"]), float(r["load"])), rel=1e-12)


def test_loss_beta_csv(tmp_path):
    out = tmp_path / "loss.csv"
    assert main(["loss-beta", "--users", "8", "--paths", "200",
                 "--frames", "20", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    wanted = [r for r in rows if r["rho_db"] == "0.0" and r["chips"] == "50"
              and float(r["beta"]) == 0.02]
    assert math.isnan(float(wanted[0]["loss_db"]))  # infeasible point kept as nan
    ref = [r for r in rows if r["rho_db"] == "10.0" and r["chips"] == "50"
           and float(r["beta"]) == 0.1]
    assert float(ref[0]["loss_db"]) == pytest.approx(8.3958, abs=2e-3)


def _by_hand(config, rho_db, beta, chips):
    """The operating point of a grid cell, its decay ratio converted here."""
    return LsaParams(rho=10.0 ** (rho_db / 10.0), beta=beta, users=config.users,
                     sigma_sq=config.sigma_sq, spreading=SpreadingConfig(config.frames, chips),
                     path_count=config.paths)


def test_every_grid_cell_is_the_config_at_its_point(monkeypatch):
    # each closed form records its arguments: mu-nu's ratios, loss-beta's
    # (rho, chips) cells and po-frames' ratios each equal the hand-built point
    seen = []
    for name in ("mu", "nu", "loss_db", "min_frames"):
        form = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, form=form: seen.append(args) or form(*args))
    config = ExperimentConfig(users=2, paths=20, chips=5, frames=3, trials=2,
                              sigma_sq=1e-12, betas=(0.3, 1.0))
    _, rows = cli.run_mu_nu_curves(config)
    assert seen == [args for r in rows for args in (
        (10.0 ** (r["rho_db"] / 10.0), r["beta"]),
        (10.0 ** (r["rho_db"] / 10.0), r["beta"], r["load"]))]
    seen.clear()
    _, rows = cli.run_loss_vs_beta(config)
    assert len(rows) == 2 * 2 * 2
    assert seen == [(_by_hand(config, r["rho_db"], r["beta"], r["chips"]),) for r in rows]
    seen.clear()
    _, rows = run_po_vs_frames(dataclasses.replace(config, betas=(0.3,)))
    assert seen == [(_by_hand(config, rho_db, 0.3, config.chips),)
                    for rho_db in cli._RHO_DB_GRID]
    assert [r["rho_db"] for r in rows[::25]] == list(cli._RHO_DB_GRID)


def test_lsa_params_takes_only_the_fraction():
    # the decay ratio and chip count come from the config's own fields, and
    # cli turns rho_db into a ratio only in ExperimentConfig.rho
    for keyword in ("rho", "chips"):
        with pytest.raises(TypeError, match=keyword):
            ExperimentConfig().lsa_params(0.1, **{keyword: 1})
    assert ExperimentConfig(rho_db=20.0).lsa_params(0.5) == _by_hand(
        ExperimentConfig(), 20.0, 0.5, ExperimentConfig.chips)
    assert Path(cli.__file__).read_text().count("rho_db / 10") == 1


def test_po_frames_outage_monotone(tmp_path):
    out = tmp_path / "po.csv"
    code = main(["po-frames", "--users", "3", "--paths", "60", "--chips", "15",
                 "--trials", "5", "--beta", "0.1", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    for rho_db in ("0.0", "10.0", "20.0"):
        block = [r for r in rows if r["rho_db"] == rho_db]
        fractions = [float(r["outage_fraction"]) for r in block]
        # common randomness across frame counts makes this exactly monotone
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert len({r["min_frames"] for r in block}) == 1


def test_po_frames_raises_on_failed_certificate(monkeypatch):
    # an uncertified equilibrium is an error, never an outage count: with a
    # negative residual bound no served bank passes the certificate
    monkeypatch.setattr(game, "_RESIDUAL_BOUND", -1.0)
    config = ExperimentConfig(users=3, paths=60, chips=15, trials=2, betas=(0.1,))
    with pytest.raises(RuntimeError, match="certificate"):
        cli.run_po_vs_frames(config)


def _record_keys(monkeypatch):
    """The keys handed to the batched stream deriver, one tuple per stream."""
    keys = []
    derive = channel._substreams

    def recording(seed, trials, users=None):
        keys.extend((t,) if users is None else (t, k)
                    for t in trials for k in range(1 if users is None else users))
        return derive(seed, trials, users)
    monkeypatch.setattr(channel, "_substreams", recording)
    return keys


@pytest.mark.parametrize("rho_db_grid", [(10.0,), (0.0, 10.0, 20.0)])
def test_po_frames_draws_each_trial_once(monkeypatch, rho_db_grid):
    # one distance stream and one stream per user for each trial, however
    # many decay ratios reuse the draw
    monkeypatch.setattr(cli, "_RHO_DB_GRID", rho_db_grid)
    keys = _record_keys(monkeypatch)
    config = ExperimentConfig(users=3, paths=40, chips=10, trials=5, betas=(0.3,))
    _, rows = run_po_vs_frames(config)
    assert len(keys) == len(set(keys)) == config.trials * (config.users + 1)
    assert len(rows) == 25 * len(rho_db_grid)


@pytest.mark.parametrize("trials, solve_trials", [
    pytest.param(3, 64, id="3"), pytest.param(9, 64, id="9"),
    # 11 trials over chunks of 8: blocks of 4, 4 | 3, and a solve per chunk
    pytest.param(10, 8, id="10-chunks-of-8")])
def test_utility_gain_draws_and_solves_each_trial_once(monkeypatch, trials, solve_trials):
    # trial 0, whose per-user rows the CSV prints, rides in the first block;
    # each block gets one gains call for both fractions, and each chunk of
    # _SOLVE_TRIALS trials one solve
    monkeypatch.setattr(cli, "_SOLVE_TRIALS", solve_trials)
    solves, gains_calls = [], []
    solve, gains = cli.solve_equilibrium, cli.link_gains
    keys = _record_keys(monkeypatch)
    monkeypatch.setattr(cli, "solve_equilibrium",
                        lambda gains, params: solves.append(gains.h_sp.shape[1])
                        or solve(gains, params))
    monkeypatch.setattr(cli, "link_gains",
                        lambda *args: gains_calls.append(1) or gains(*args))
    config = ExperimentConfig(users=3, paths=40, chips=10, trials=trials,
                              betas=(1.0, 0.3))
    run_utility_vs_gain(config)
    assert len(keys) == len(set(keys)) == (config.trials + 1) * (config.users + 1)
    chunks = [len(range(config.trials + 1)[first:first + solve_trials])
              for first in range(0, config.trials + 1, solve_trials)]
    assert solves == chunks
    assert len(gains_calls) == sum(math.ceil(n / cli._TRIAL_BLOCK) for n in chunks)


def test_utility_gain_memory_is_flat_in_the_trial_count():
    # draws and spectra live one block of trials at a time, and a chunk of
    # solves keeps only its blocks' energies and gains: 100 doubles a trial
    # at 4 users and 4 fractions, 51 KB for 64 trials. So the traced peak
    # at 130 and at 260 trials (chunks of 64) stays within 128 KiB of the
    # one-block peak at 3 trials. Holding a chunk's draws until its gains
    # would keep 64 trials of (K, L) normals and path gains, 328 KB more
    def peak(trials):
        config = ExperimentConfig(users=4, paths=40, chips=10, trials=trials)
        tracemalloc.start()
        try:
            run_utility_vs_gain(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one_block = peak(3)
    assert peak(130) <= one_block + 128 * 1024
    assert peak(260) <= one_block + 128 * 1024


def test_utility_gain_prediction_column(tmp_path):
    out = tmp_path / "ug.csv"
    assert main(["utility-gain", "--users", "4", "--paths", "80", "--chips", "20",
                 "--trials", "4", "--beta", "0.5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 4
    assert len({r["nmse"] for r in rows}) == 1
    assert float(rows[0]["nmse"]) > 0.0
    for r in rows:
        assert float(r["utility_sim"]) > 0.0
        assert float(r["power_w"]) > 0.0
        # prediction scales linearly with the combined gain, so the ratio
        # utility_pred / channel-gain ordering must be preserved
    predicted = [float(r["utility_pred"]) for r in rows]
    gains = [float(r["channel_gain"]) for r in rows]
    assert np.argsort(predicted).tolist() == np.argsort(gains).tolist()


def test_csv_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["utility-gain", "--users", "3", "--paths", "60", "--chips", "15",
            "--trials", "3", "--beta", "0.3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # data rows alone must also match, mirroring the comment-line carve-out
    data_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    data_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert data_a == data_b


def test_csv_goes_to_stdout_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["apdp", "--paths", "5"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 5 and float(rows[0]["variance"]) == 1.0
    assert "wrote stdout (5 rows)" in captured.err
    assert list(tmp_path.iterdir()) == []
    # with --out, stdout stays empty: status lines go to stderr
    assert main(["apdp", "--paths", "5", "--out", str(tmp_path / "a.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err


def test_seed_changes_data(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["utility-gain", "--users", "3", "--paths", "60", "--chips", "15",
            "--trials", "3", "--beta", "0.3"]
    assert main(args + ["--seed", "1", "--out", str(a)]) == 0
    assert main(args + ["--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_validate_exit_codes(tmp_path):
    ok = tmp_path / "ok.csv"
    code = main(["validate", "--paths", "1600", "--trials", "50",
                 "--out", str(ok)])
    assert code == 0
    _, rows = _read_csv(ok)
    assert all(r["passed"] == "True" for r in rows)
    # at a deliberately small size the slowest-converging limit row misses
    # its tolerance and the command reports failure
    bad = tmp_path / "bad.csv"
    code = main(["validate", "--paths", "400", "--chips", "100",
                 "--trials", "30", "--seed", "7", "--out", str(bad)])
    assert code == 2
    _, rows = _read_csv(bad)
    assert any(r["passed"] == "False" for r in rows)


def test_steep_decay_fails_only_limit_rows(tmp_path):
    # at 600 dB over 400 taps each tap is about 1.41 times weaker than the
    # one before, so a few taps carry the energy and 19 limit rows sit far
    # from their L -> infinity closed forms: a finite-size error, since the
    # identities between finite routes and the Monte Carlo row all hold
    out = tmp_path / "steep.csv"
    assert main(["validate", "--paths", "400", "--rho-db", "600", "--out", str(out)]) == 2
    _, rows = _read_csv(out)
    assert {r["kind"] for r in rows if r["passed"] == "False"} == {"limit"}
    assert all(r["passed"] == "True" for r in rows if r["kind"] != "limit")


def test_validate_comment_line_records_the_audited_config(tmp_path):
    # the audit's own chips, trials and beta stand in for the unset ones
    out = tmp_path / "v.csv"
    assert main(["validate", "--paths", "1600", "--out", str(out)]) == 0
    comment, _ = _read_csv(out)
    assert " paths=1600 chips=400 " in comment
    assert " betas=0.1 trials=500 " in comment


def test_po_frames_comment_line_records_the_fraction_it_runs_at(tmp_path):
    # without --beta po-frames runs at 0.1, and its comment line says so:
    # the whole file is the one written with --beta 0.1
    small = ["po-frames", "--users", "3", "--paths", "40", "--chips", "10", "--trials", "3"]
    files = []
    for extra in ([], ["--beta", "0.1"]):
        out = tmp_path / f"po{len(extra)}.csv"
        assert main(small + extra + ["--out", str(out)]) == 0
        files.append(out.read_text())
    assert " betas=0.1 trials=3 " in files[0].splitlines()[0]
    assert files[0] == files[1]


def test_comment_line_records_the_fields_the_command_reads(tmp_path):
    # gamma-curve reads no config field; utility-gain reads all, sigma_sq too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_sq = 1e-13\n")
    comments = {}
    for key, args in (("gamma", ["gamma-curve"]),
                      ("default", ["utility-gain", "--trials", "2"]),
                      ("sigma", ["utility-gain", "--trials", "2", "--config", str(cfg)])):
        out = tmp_path / f"{key}.csv"
        assert main(args + ["--out", str(out)]) == 0
        comments[key], _ = _read_csv(out)
    assert comments["gamma"] == f"# version={__version__}"
    assert comments["default"] == (
        "# users=8 paths=200 chips=50 frames=20 rho_db=10.0 betas=default trials=2 "
        f"seed=12345 sigma_sq=5e-16 version={__version__}")
    assert comments["sigma"] == comments["default"].replace("sigma_sq=5e-16",
                                                            "sigma_sq=1e-13")


def test_usage_errors_exit_one(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["apdp", "--paths", "not-a-number"]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 3\n")
    assert main(["mu-nu", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nusers = 4\ntrials = 6\nbetas = 0.5 0.2\n"
                   "rho-db = 20\n")
    data = load_config_file(str(cfg))
    assert data == {"users": 4, "trials": 6, "betas": (0.5, 0.2), "rho_db": 20.0}
    config, explicit = build_config(str(cfg))
    assert config.users == 4 and config.trials == 6
    assert config.rho_db == 20.0
    assert explicit == {"users", "trials", "betas", "rho_db"}


@pytest.mark.parametrize("text, message", [
    ("users = 4\nnonsense\n", "{cfg}:2: expected key=value, got 'nonsense'"),
    ("x = 1\n", "{cfg}:1: unknown config key 'x'"),
    ("# users\nusers = abc\n", "{cfg}:2: bad value for users: 'abc'"),
    ("beta = 0.1, abc\n", "{cfg}:1: bad value for beta: '0.1, abc'"),
    ("beta = 0.1\nbetas = 0.5\nrho-db = 3\nrho_db = 5\n", "{cfg}:2: betas already set on line 1"),
    ("rho-db = 3\n# again\nrho_db = 5\n", "{cfg}:3: rho_db already set on line 1"),
], ids=["no-equals", "unknown-key", "bad-int", "bad-beta", "beta-twice", "rho-db-twice"])
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config_file(str(cfg))
    assert str(exc.value) == message.format(cfg=cfg)
    assert main(["mu-nu", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"Error: {message.format(cfg=cfg)}\n"


def test_unreadable_config_file_is_an_error(tmp_path, capsys):
    missing, binary = tmp_path / "missing.cfg", tmp_path / "binary.cfg"
    binary.write_bytes(b"trials = 3\n\xff\n")
    for cfg in (missing, binary):
        with pytest.raises(ValueError) as exc:
            load_config_file(str(cfg))
        assert str(exc.value).startswith(f"cannot read config file {cfg}: ")
        assert main(["mu-nu", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"Error: cannot read config file {cfg}: ")
    # an output path that cannot be opened is named the same way
    for out, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert main(["gamma-curve", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"Error: cannot write {out}: {reason}\n"


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 6\nusers = 4\n")
    config, explicit = build_config(str(cfg), trials=3)
    assert config.trials == 3 and config.users == 4
    assert "trials" in explicit


def test_runner_functions_return_fields_and_rows():
    config = ExperimentConfig(users=2, paths=40, chips=10, trials=2,
                              betas=(0.5,))
    fields, rows = run_gamma_curve(config)
    assert fields == ["varsigma", "target_sinr"]
    assert len(rows) == 121
    fields, rows = run_utility_vs_gain(config)
    assert len(rows) == 2
    assert set(fields) == set(rows[0])


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "rakepower", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout
    assert "po-frames" in proc.stdout


def test_cli_import_loads_no_scipy_and_the_numpy_submodules():
    # numpy loads numpy.random and numpy.fft lazily: importing them with the
    # package keeps their cost in start-up rather than in the first study;
    # decimal (nu near flat decay, fractions in the exact flat forms) and
    # logging (min_frames below 5 frames) load only where they are used
    code = ("import sys, rakepower.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules, 'numpy.fft' in sys.modules); "
            "print('decimal' in sys.modules, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True True", "False False"]


def test_validate_loads_neither_fractions_nor_decimal(tmp_path):
    # the audit divides the flat references' integer counts itself, so a
    # study away from flat decay never imports the exact-rational modules
    code = textwrap.dedent(f"""
        import sys
        from rakepower.cli import main
        assert main(["validate", "--paths", "1600", "--out", {str(tmp_path / "v.csv")!r}]) == 0
        print("fractions" in sys.modules, "decimal" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_validate_rows_do_not_depend_on_the_blas_thread_count():
    # numpy hands a long enough 1-D float @ to BLAS, whose partial sums
    # follow its thread count: with @ in the audit's dots,
    # cross_coefficient_full read 0.9998042266934799 with one thread and
    # 0.99980422669348 with two here (OpenBLAS 0.3.31, 2 cores)
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rakepower", "validate",
                               "--paths", "12000", "--rho-db", "20"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        rows.append(proc.stdout.splitlines()[1:])
    assert len(rows[0]) == 41 and rows[0] == rows[1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="checks glibc malloc's mmap and trim thresholds")
def test_trial_block_temporaries_reuse_their_pages():
    # the package raises glibc's thresholds on import (rakepower/__init__.py);
    # without that, each call below faults in about 70 fresh pages
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from rakepower import (__version__, ApdpProfile, RakeSelector,
                               SpreadingConfig, link_gains, sample_channel_bank)
        variances = 0.3 * np.linspace(3.0, 20.0, 8) ** -2.0
        block = np.stack([sample_channel_bank(ApdpProfile(200, 10.0), variances, 1, t)
                          for t in range(4)])
        args = (block, RakeSelector(0.3), SpreadingConfig(20, 50), 5e-16)
        link_gains(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            link_gains(*args)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def _draw(config, profile, t):
    variances = sample_topology(config.users, 3.0, 20.0, substream(config.seed, t))
    return sample_channel_bank(profile, variances, config.seed, t)


def _utility_gain_reference(config):
    """Per-trial loop: one bank, one link_gains call and one solve at a time."""
    profile = ApdpProfile(config.paths, config.rho)
    spreading = SpreadingConfig(frames=config.frames, chips_per_frame=config.chips)
    rows = []
    for beta in config.betas:
        penalty = 10.0 ** (loss_db(config.lsa_params(beta)) / 10.0)
        errs = []
        for t in range(1, config.trials + 1):
            bank = _draw(config, profile, t)
            out = solve_equilibrium(link_gains(bank, RakeSelector(beta), spreading,
                                               config.sigma_sq), UtilityParams())
            assert out.converged
            if out.any_clamped:
                continue
            pred = predict_utility(config.lsa_params(1.0),
                                   np.sum(np.abs(bank) ** 2, axis=-1)) / penalty
            errs.extend(((pred - out.utilities) / out.utilities) ** 2)
        nmse = float(np.mean(errs)) if errs else math.nan
        bank0 = _draw(config, profile, 0)
        gains0 = link_gains(bank0, RakeSelector(beta), spreading, config.sigma_sq)
        out0 = solve_equilibrium(gains0, UtilityParams())
        pred0 = predict_utility(config.lsa_params(beta), gains0.h_sp)
        energy0 = np.sum(np.abs(bank0) ** 2, axis=-1)
        rows += [[beta, k, energy0[k], out0.powers[k], out0.utilities[k],
                  pred0[k], nmse] for k in range(config.users)]
    return rows


def _po_frames_reference(config):
    """Per-trial, per-frame-count loop at the full processing gain."""
    beta = config.betas[0]
    rows = []
    for rho_db in (0.0, 10.0, 20.0):
        profile = ApdpProfile(config.paths, 10.0 ** (rho_db / 10.0))
        outages = np.zeros(25)
        for t in range(config.trials):
            bank = _draw(config, profile, t)
            for nf in range(1, 26):
                gains = link_gains(bank, RakeSelector(beta), SpreadingConfig(nf, config.chips),
                                   config.sigma_sq)
                outages[nf - 1] += solve_equilibrium(gains, UtilityParams()).any_clamped
        rows += [[rho_db, nf, outages[nf - 1] / config.trials] for nf in range(1, 26)]
    return rows


@pytest.mark.parametrize("trials", [1, 3, 4, 5, 9])
def test_trial_blocks_match_per_trial_loops(trials):
    # block edges fall at different trials for each count; K=17 at beta 0.1
    # clamps some trials (seed 12 clamps trials 1 and 2), which the nmse skips
    config = ExperimentConfig(users=17, trials=trials, seed=12, betas=(0.5, 0.1))
    # the blocks hold every trial once, in order, with its per-trial draw
    # (equilibrium utilities barely see the distances, so check the draws)
    profile = ApdpProfile(config.paths, config.rho)
    blocks = channel._trial_blocks(config.seed, range(trials + 1), config.users, config.paths,
                                   cli._TRIAL_BLOCK)
    drawn = [(t, bank) for ts, variances, normals in blocks
             for t, bank in zip(ts, profile.path_gains(variances, normals))]
    assert [t for t, _ in drawn] == list(range(trials + 1))
    for t, bank in drawn:
        np.testing.assert_array_equal(bank, _draw(config, profile, t))
    fields, rows = run_utility_vs_gain(config)
    got = [[r[f] for f in fields] for r in rows]
    np.testing.assert_allclose(np.array(got, dtype=float),
                               np.array(_utility_gain_reference(config)),
                               rtol=1e-12, atol=0, equal_nan=True)
    assert math.isnan(got[-1][-1]) == (trials == 1)
    config = ExperimentConfig(users=4, paths=40, chips=10, trials=trials, seed=12,
                              betas=(0.3,))
    fields, rows = run_po_vs_frames(config)
    got = [[r[f] for f in ("rho_db", "frames", "outage_fraction")] for r in rows]
    np.testing.assert_allclose(got, _po_frames_reference(config), rtol=1e-12, atol=0)


def test_utility_gain_nmse_skips_clamped_trials(tmp_path, capsys):
    # 32 users at beta 0.1 clamp every trial, and the large-system
    # operating point is infeasible too; beta 0.5 clamps none
    out = tmp_path / "ug.csv"
    assert main(["utility-gain", "--users", "32", "--beta", "0.1", "--beta", "0.5",
                 "--trials", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "beta=0.1: 4, beta=0.5: 0" in err
    assert "nmse at beta=0.1 is nan: every one of the 4 trials has a clamped user" in err
    assert "nmse at beta=0.1 is nan: the operating point is infeasible" in err
    assert "beta=0.5 is nan" not in err
    _, rows = _read_csv(out)
    assert len(rows) == 64
    for r in rows:
        assert math.isnan(float(r["nmse"])) == (r["beta"] == "0.1")
        assert not math.isinf(float(r["nmse"]))
    assert any(float(r["power_w"]) == 1e-6 for r in rows if r["beta"] == "0.1")


def test_utility_gain_raises_on_failed_certificate(monkeypatch):
    solve = cli.solve_equilibrium
    monkeypatch.setattr(cli, "solve_equilibrium", lambda gains, params:
                        dataclasses.replace(solve(gains, params), converged=False))
    config = ExperimentConfig(users=3, paths=60, chips=15, trials=2, betas=(0.5,))
    with pytest.raises(RuntimeError, match="certificate"):
        cli.run_utility_vs_gain(config)


def test_validate_rejects_infeasible_operating_point(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert main(["validate", "--paths", "41", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("Error:")] == [err.strip()]
    assert "cannot audit paths=41 chips=10 users=8" in err
    assert "infeasible operating point" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_validate_fails_split_routes_as_a_certificate(tmp_path, capsys, monkeypatch):
    # two self-lag routes that disagree fail the audit as an uncertified
    # equilibrium fails a study: an error, never a usage error naming the point
    table_lags = oracle._table_lags
    monkeypatch.setattr(oracle, "_table_lags",
                        lambda v, fingers: table_lags(v, fingers) * (1.0 + 1e-9))
    out = tmp_path / "v.csv"
    with pytest.raises(RuntimeError, match="self-interference evaluation orders disagree"):
        main(["validate", "--paths", "400", "--out", str(out)])
    assert "cannot audit" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["0.004", "0.005"])
def test_validate_refuses_fewer_than_three_monte_carlo_fingers(tmp_path, capsys, beta):
    # the mc row runs at 400 paths: 1 and 2 fingers there give a ratio with
    # no finite variance (and with 1, all-zero Gram references)
    out = tmp_path / "v.csv"
    assert main(["validate", "--paths", "4000", "--beta", beta, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("Error:")] == [err.strip()]
    assert err.startswith(f"Error: cannot audit paths=4000 chips=1000 users=8 frames=20 "
                          f"rho_db=10.0 beta={beta}: combined fingers at 400 paths must be >= 3")
    assert "Traceback" not in err
    assert not out.exists()
    # 3 fingers run the audit, whatever its verdict
    assert main(["validate", "--paths", "4000", "--beta", "0.0075", "--out", str(out)]) in (0, 2)
    assert len(_read_csv(out)[1]) == 40


_SMALL = ["--users", "2", "--paths", "20", "--chips", "5", "--trials", "2"]


@pytest.mark.parametrize("args, code, nan_column", [
    (["mu-nu"], 0, "nu"), (["loss-beta"], 0, "loss_db"),
    (["utility-gain", *_SMALL], 0, "nmse"), (["po-frames", *_SMALL], 0, "min_frames"),
    (["validate", "--paths", "40", "--trials", "2"], 1, None)])
def test_tiny_beta_gives_nan_cells_or_one_error_line(tmp_path, capsys, args, code, nan_column):
    # at beta 1e-20, rho^beta rounds to 1 at 10 and 20 dB: nu has no value
    # there, which a study reports as nan or as a usage error, never a traceback
    out = tmp_path / "out.csv"
    assert main([*args, "--beta", "1e-20", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if nan_column is None:
        assert [line for line in err.splitlines() if line.startswith("Error:")] == [
            err.strip()]
        assert "nu is not evaluated" in err
    else:
        cells = [row[nan_column] for row in _read_csv(out)[1]]
        assert "nan" in cells


@pytest.mark.parametrize("name", ["utility-gain", "po-frames", "validate"])
def test_trials_past_the_stream_key_range_are_a_usage_error(tmp_path, capsys, name):
    # each trial index is one stream key word in [0, 2^32), and utility-gain
    # runs trials 0 to --trials: 2^32 is refused before any study runs
    out = tmp_path / "out.csv"
    assert main([name, "--trials", str(2**32), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("Error:")] == [err.strip()]
    assert f"trials must be >= 1 and <= {2**32 - 1}" in err
    assert not out.exists()
    # the largest count is accepted; no study runs at that size here
    assert ExperimentConfig(trials=2**32 - 1).trials == 2**32 - 1


def test_usage_error_exits_one_without_a_traceback():
    # the README's exit-code contract at process level, through the entry
    # point: a trial count past the 32-bit stream keys is a usage error
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "rakepower", "utility-gain",
                           "--trials", str(2**32)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"trials must be >= 1 and <= {2**32 - 1}" in proc.stderr
    # and validate points the audit refuses, with the point named: an
    # infeasible one, and one whose target's packet success rate underflows
    for args, point, reason in (
            (["--paths", "41"], "paths=41 chips=10", "infeasible operating point"),
            (["--paths", "4", "--chips", "1", "--frames", "1", "--users", "1", "--rho-db", "0",
              "--beta", "0.001"], "paths=4 chips=1 users=1 frames=1 rho_db=0.0 beta=0.001",
             "the packet success rate underflows to 0 at target SINR 0.00113")):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rakepower", "validate",
                               *args], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("Error:")]
        assert errors == [proc.stderr.strip()]
        assert f"cannot audit {point}" in errors[0]
        assert reason in errors[0]


def test_help_exits_zero_in_process(capsys):
    assert main(["--help"]) == 0
    assert "Usage:" in capsys.readouterr().out


def test_interrupted_run_exits_one(monkeypatch, capsys):
    # click turns a KeyboardInterrupt into Abort, which main reports
    def interrupted(config):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "run_validate", interrupted)
    assert main(["validate"]) == 1
    assert capsys.readouterr().err.strip().endswith("aborted")


# the flags each command's runner reads; every command also takes --out and
# --config, and sigma_sq is a config-file key only
_READS = {
    "gamma-curve": (),
    "apdp": ("--paths", "--rho-db"),
    "mu-nu": ("--beta",),
    "loss-beta": ("--users", "--paths", "--frames", "--beta"),
    "po-frames": ("--users", "--paths", "--chips", "--frames", "--beta", "--trials",
                  "--seed"),
    "utility-gain": ("--users", "--paths", "--chips", "--frames", "--rho-db", "--beta",
                     "--trials", "--seed"),
    "validate": ("--users", "--paths", "--chips", "--frames", "--rho-db", "--beta",
                 "--trials", "--seed"),
}
# a value off each flag's default, small enough to run every study quickly
_NON_DEFAULT = {"--users": "4", "--paths": "100", "--chips": "20", "--frames": "10",
                "--rho-db": "3", "--beta": "0.4", "--trials": "2", "--seed": "3"}
_UNREAD_FLAGS = [(name, flag) for name, reads in _READS.items() for flag in _NON_DEFAULT
                 if flag not in reads]


@pytest.mark.parametrize("args, cfg", [
    (["utility-gain", "--trials", "2", "--seed", "-1"], None),
    (["validate", "--paths", "400", "--seed", "-5"], None),
    (["utility-gain", "--trials", "2", "--rho-db", "nan"], None),
    (["utility-gain", "--trials", "2"], "sigma_sq = -1\n"),
    (["utility-gain", "--trials", "2"], "sigma_sq = nan\n"),
    (["validate", "--paths", "400"], "sigma_sq = nan\n"),
    (["validate", "--paths", "400", "--trials", "1"], None),
    (["validate", "--paths", "2"], None),
    (["validate", "--paths", "2", "--chips", "1", "--frames", "1000", "--users", "1"], None),
    (["po-frames", "--users", "4", "--paths", "40", "--chips", "10", "--trials", "3",
      "--beta", "0.3", "--beta", "0.9"], None),
    (["validate", "--paths", "400", "--beta", "0.3", "--beta", "0.9"], None),
    (["po-frames", "--trials", "2"], "rho-db = 3\n"),
    (["loss-beta"], "sigma_sq = 1e-15\n"),
    (["gamma-curve"], "seed = 3\n"),
    (["validate", "--paths", "400", "--rho-db", "800"], None),
    (["utility-gain", "--trials", "1", "--rho-db", "1600"], None),
    (["apdp", "--rho-db", "3090"], None),
    *[([name, flag, _NON_DEFAULT[flag]], None) for name, flag in _UNREAD_FLAGS],
], ids=["utility-gain-negative-seed", "validate-negative-seed",
        "utility-gain-nan-rho-db", "config-negative-sigma-sq",
        "utility-gain-config-nan-sigma-sq", "validate-config-nan-sigma-sq",
        "validate-one-trial", "validate-no-chips-at-two-paths",
        "validate-no-region-chips-at-two-paths",
        "po-frames-two-betas", "validate-two-betas", "po-frames-config-rho-db",
        "loss-beta-config-sigma-sq", "gamma-curve-config-seed",
        "validate-rho-db-800", "utility-gain-rho-db-1600", "apdp-rho-db-3090",
        *[f"{name}-unread-{flag[2:]}" for name, flag in _UNREAD_FLAGS]])
def test_bad_input_is_a_usage_error(tmp_path, capsys, args, cfg):
    # rejected before any study runs: exit 1, one Error: line, no CSV
    out = tmp_path / "x.csv"
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("Error: ") for line in err.splitlines())
    assert "Traceback" not in err
    assert not out.exists()


def test_each_command_takes_the_flags_it_reads():
    for name, reads in _READS.items():
        opts = {p.opts[0] for p in cli.cli.commands[name].params}
        assert opts == {*reads, "--out", "--config"}, name


@pytest.mark.parametrize("name", ["apdp", "mu-nu", "loss-beta"])
def test_every_flag_of_a_closed_form_study_changes_its_rows(tmp_path, name):
    # read from click, so a flag added without effect fails here
    def data_rows(*args):
        out = tmp_path / "x.csv"
        assert main([name, *args, "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    flags = [p.opts[0] for p in cli.cli.commands[name].params
             if p.name not in ("out", "config_file")]
    assert flags
    default = data_rows()
    for flag in flags:
        assert data_rows(flag, _NON_DEFAULT[flag]) != default, flag
