"""Configuration parsing, artifact formats, determinism, resume, CLI."""

import math
import struct

import numpy as np
import pytest

from bqsim import (
    CheckpointError,
    ConfigurationError,
    Grid,
    SimState,
    SpectralField,
    config_echo,
    initial_norms,
    inverse_transform,
    lp_norm,
    make_initial_data,
    parse_config,
    read_checkpoint,
    records_from_csv,
    run,
    write_checkpoint,
    write_diagnostics_csv,
)
from bqsim.cli import main
from bqsim.fields import random_scalar_field

BASE = "n = 64\nt_end = 0.1\npreset = tg-blob\n"
FLOAT_KEYS = [
    "t_end", "alpha", "cfl", "dt", "omega_lr", "checkpoint_times", "amplitude",
    "tg_amplitude", "blob_amplitude", "blob_width", "random_gamma", "random_amplitude",
]


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(BASE)
        assert (cfg.n, cfg.t_end, cfg.preset) == (64, 0.1, "tg-blob")
        assert cfg.alpha == 1.0 and cfg.cfl == 0.5 and cfg.dt is None
        assert cfg.diag_cadence == 10 and cfg.seed == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full line comment\n\nn = 64  # trailing\nt_end = 1\npreset = zero\n")
        assert cfg.n == 64

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigurationError, match="viscosity"):
            parse_config(BASE + "viscosity = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(BASE + "n = 32\n")

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigurationError, match="t_end"):
            parse_config("n = 64\npreset = zero\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("nonsense\n" + BASE)

    def test_odd_grid_size_is_named(self):
        with pytest.raises(ConfigurationError, match="'n'"):
            parse_config("n = 99\nt_end = 1\npreset = zero\n")

    def test_bad_number_is_named(self):
        with pytest.raises(ConfigurationError, match="'t_end'"):
            parse_config("n = 64\nt_end = soon\npreset = zero\n")

    def test_bad_bool_is_named(self):
        with pytest.raises(ConfigurationError, match="blob_mean_subtract"):
            parse_config(BASE + "blob_mean_subtract = maybe\n")

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError, match="'alpha'"):
            parse_config(BASE + "alpha = 2.5\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="'preset'"):
            parse_config("n = 64\nt_end = 1\npreset = vortex\n")

    def test_checkpoint_times_sorted_and_deduped(self):
        cfg = parse_config(BASE + "checkpoint_times = 0.05, 0.01, 0.05\n")
        assert cfg.checkpoint_times == (0.01, 0.05)

    def test_checkpoint_beyond_t_end(self):
        with pytest.raises(ConfigurationError, match="checkpoint_times"):
            parse_config(BASE + "checkpoint_times = 0.5\n")

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")
         if (key, value) != ("omega_lr", "inf")],
    )
    def test_non_finite_numbers_are_named(self, key, value):
        head = "n = 64\npreset = tg-blob\n" + ("" if key == "t_end" else "t_end = 0.1\n")
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            parse_config(head + f"{key} = {value}\n")

    def test_omega_lr_may_be_infinite(self):
        assert parse_config(BASE + "omega_lr = inf\n").omega_lr == math.inf

    def test_echo_round_trips_choices(self):
        cfg = parse_config(BASE + "dt = 0.001\nseed = 7\n")
        lines = config_echo(cfg)
        assert "dt = 0.001" in lines
        assert "seed = 7" in lines
        cfg2 = parse_config(BASE)
        assert "dt = adaptive" in config_echo(cfg2)

    def test_echo_lists_every_key_in_order(self):
        cfg = parse_config(
            "n = 32\nt_end = 2\npreset = random\nalpha = 0.75\ncfl = 0.25\ndt = 0.01\n"
            "seed = 3\ndiag_cadence = 4\noutput_dir = elsewhere\nomega_lr = 4\n"
            "checkpoint_times = 1.5, 0.5\namplitude = 2\ntg_amplitude = 3\n"
            "blob_amplitude = 4\nblob_width = 0.25\nblob_mean_subtract = yes\n"
            "random_gamma = 3.5\nrandom_amplitude = 0.5\n"
        )
        assert config_echo(cfg) == [
            "n = 32",
            "t_end = 2.0",
            "preset = random",
            "alpha = 0.75",
            "cfl = 0.25",
            "dt = 0.01",
            "seed = 3",
            "diag_cadence = 4",
            "omega_lr = 4.0",
            "checkpoint_times = 0.5,1.5",
            "amplitude = 2.0",
            "tg_amplitude = 3.0",
            "blob_amplitude = 4.0",
            "blob_width = 0.25",
            "blob_mean_subtract = True",
            "random_gamma = 3.5",
            "random_amplitude = 0.5",
        ]


class TestInitialData:
    def test_zero_preset(self):
        state = make_initial_data(parse_config("n = 64\nt_end = 1\npreset = zero\n"))
        assert np.all(state.omega_hat.coeffs == 0)
        assert np.all(state.theta_hat.coeffs == 0)

    def test_taylor_green_has_no_temperature(self):
        state = make_initial_data(parse_config("n = 64\nt_end = 1\npreset = taylor-green\n"))
        assert lp_norm(inverse_transform(state.omega_hat), 2) > 1.0
        assert np.all(state.theta_hat.coeffs == 0)

    def test_blob_has_no_vorticity(self):
        state = make_initial_data(parse_config("n = 64\nt_end = 1\npreset = blob\n"))
        assert np.all(state.omega_hat.coeffs == 0)
        assert lp_norm(inverse_transform(state.theta_hat), math.inf) == pytest.approx(
            1.0, rel=1e-6
        )

    def test_amplitude_scales_everything(self):
        one = make_initial_data(parse_config(BASE))
        small = make_initial_data(parse_config(BASE + "amplitude = 1e-8\n"))
        assert np.allclose(small.omega_hat.coeffs, one.omega_hat.coeffs * 1e-8)
        assert np.allclose(small.theta_hat.coeffs, one.theta_hat.coeffs * 1e-8)

    def test_random_preset_is_seeded(self):
        text = "n = 64\nt_end = 1\npreset = random\nseed = "
        a = make_initial_data(parse_config(text + "3\n"))
        b = make_initial_data(parse_config(text + "3\n"))
        c = make_initial_data(parse_config(text + "4\n"))
        assert np.array_equal(a.omega_hat.coeffs, b.omega_hat.coeffs)
        assert not np.array_equal(a.omega_hat.coeffs, c.omega_hat.coeffs)

    def test_initial_norms_reports_hypothesis_table(self):
        state = make_initial_data(parse_config(BASE))
        table = initial_norms(state)
        for key in ("l2_theta", "besov_theta_inf1", "h1_v", "grad_v_lp"):
            assert table[key] > 0.0


class TestCheckpointFormat:
    def make_state(self, seed=1):
        g = Grid(64)
        return SimState(
            0.375,
            random_scalar_field(g, 2.5, 1.0, (seed, 1)),
            random_scalar_field(g, 2.5, 1.0, (seed, 2)),
            1.0,
        )

    def test_bitwise_roundtrip(self, tmp_path):
        path = tmp_path / "state.bqsf"
        state = self.make_state()
        write_checkpoint(path, state)
        back = read_checkpoint(path)
        assert back.t == state.t and back.alpha == state.alpha
        assert back.grid.n == 64
        assert back.omega_hat.coeffs.tobytes() == state.omega_hat.coeffs.tobytes()
        assert back.theta_hat.coeffs.tobytes() == state.theta_hat.coeffs.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bqsf", tmp_path / "b.bqsf"
        write_checkpoint(a, self.make_state())
        write_checkpoint(b, self.make_state())
        assert a.read_bytes() == b.read_bytes()

    def test_magic_is_validated(self, tmp_path):
        path = tmp_path / "bad.bqsf"
        write_checkpoint(path, self.make_state())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_version_is_validated(self, tmp_path):
        path = tmp_path / "bad.bqsf"
        write_checkpoint(path, self.make_state())
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_truncation_is_detected(self, tmp_path):
        path = tmp_path / "bad.bqsf"
        write_checkpoint(path, self.make_state())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="size"):
            read_checkpoint(path)

    def test_header_only_is_detected(self, tmp_path):
        path = tmp_path / "bad.bqsf"
        path.write_bytes(b"BQ")
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "n, alpha, t, coeff",
        [
            (16, 1.0, math.nan, 0.0),
            (16, 1.0, 0.0, math.nan),
            (16, math.inf, 0.0, 0.0),
            (15, 1.0, 0.0, 0.0),
        ],
        ids=["nan-t", "nan-coefficient", "inf-alpha", "odd-n"],
    )
    def test_bad_values_are_rejected(self, tmp_path, capsys, n, alpha, t, coeff):
        path = tmp_path / "bad.bqsf"
        payload = np.zeros(2 * n * n, dtype="<c16")
        payload[n * n + 1] = coeff
        path.write_bytes(struct.pack("<4sIIdd", b"BQSF", 1, n, alpha, t) + payload.tobytes())
        with pytest.raises(CheckpointError, match="bad.bqsf"):
            read_checkpoint(path)
        assert main(["norms", "--checkpoint", str(path)]) == 2


class TestDiagnosticsCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        cfg = parse_config(BASE + "diag_cadence = 1\n")
        result = run(cfg, output_dir=tmp_path / "out")
        back = records_from_csv(result.csv_path)
        assert len(back) == len(result.records)
        for ours, theirs in zip(result.records, back):
            assert ours == theirs  # %.17g round-trips float64 exactly

    def test_header_is_self_describing(self, tmp_path):
        cfg = parse_config(BASE + "seed = 5\n")
        result = run(cfg, output_dir=tmp_path / "out")
        text = result.csv_path.read_text()
        assert "# format_version" in text
        assert "preset = tg-blob" in text
        assert "seed = 5" in text

    def test_reader_rejects_column_drift(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CheckpointError):
            records_from_csv(path)


class TestDeterminismAndResume:
    def test_identical_runs_produce_identical_artifacts(self, tmp_path):
        cfg_text = BASE + "diag_cadence = 2\ncheckpoint_times = 0.05\nseed = 9\n"
        out_a = run(parse_config(cfg_text), output_dir=tmp_path / "a")
        out_b = run(parse_config(cfg_text), output_dir=tmp_path / "b")
        for name in ("diagnostics.csv", "final.bqsf", "checkpoint_000.bqsf"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_reproduces_the_trajectory(self, tmp_path):
        cfg = parse_config(BASE + "checkpoint_times = 0.05\n")
        full = run(cfg, output_dir=tmp_path / "full")
        mid = read_checkpoint(tmp_path / "full" / "checkpoint_000.bqsf")
        resumed = run(cfg, output_dir=tmp_path / "resumed", initial_state=mid)
        diff = np.max(
            np.abs(resumed.final_state.omega_hat.coeffs - full.final_state.omega_hat.coeffs)
        )
        assert diff <= 1e-12
        assert resumed.final_state.t == full.final_state.t


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(BASE + f"output_dir = {tmp_path / 'out'}\n" + extra)
        return path

    def test_run_and_norms_roundtrip(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        code = main(["norms", "--checkpoint", str(tmp_path / "out" / "final.bqsf"),
                     "--besov", "0,inf,1"])
        assert code == 0
        assert "besov(0,inf,1)_omega" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 99\nt_end = 1\npreset = zero\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_non_finite_config_exits_two_without_artifacts(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "dt = nan\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'dt'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec", ["nan,2,1", "0,nan,1"])
    def test_bad_besov_spec_exits_two_before_printing(self, tmp_path, capsys, spec):
        ckpt = tmp_path / "state.bqsf"
        write_checkpoint(ckpt, make_initial_data(parse_config(BASE)))
        assert main(["norms", "--checkpoint", str(ckpt), "--besov", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Besov" in captured.err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_usage_error_exits_two(self, capsys):
        assert main(["verify", "--suite", "unheard-of"]) == 2

    def test_verify_writes_ratio_table(self, tmp_path, capsys):
        code = main([
            "verify", "--suite", "gen-bernstein", "--count", "2", "--n", "32",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "gen-bernstein.csv").exists()

    def test_verify_rejects_foreign_parameter(self, tmp_path, capsys):
        code = main([
            "verify", "--suite", "log-interp", "--count", "2", "--n", "32",
            "--beta", "3.0", "--output-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--beta" in capsys.readouterr().err

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE + "output_dir = should_not_be_used\n")
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("BQ_OUTPUT_DIR", str(env_dir))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (env_dir / "final.bqsf").exists()

    def test_explicit_output_dir_beats_env(self, tmp_path, monkeypatch, capsys):
        cfg = self.write_cfg(tmp_path)
        monkeypatch.setenv("BQ_OUTPUT_DIR", str(tmp_path / "env_out"))
        explicit = tmp_path / "explicit"
        assert main(["run", "--config", str(cfg), "--output-dir", str(explicit)]) == 0
        assert (explicit / "final.bqsf").exists()
        assert not (tmp_path / "env_out").exists()

    def test_resume_flag(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "checkpoint_times = 0.05\n")
        assert main(["run", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoint_000.bqsf"
        code = main([
            "run", "--config", str(cfg), "--resume", str(ckpt),
            "--output-dir", str(tmp_path / "resumed"),
        ])
        assert code == 0
        assert (tmp_path / "resumed" / "final.bqsf").exists()

    @pytest.mark.parametrize(
        "extra",
        ["preset = random\namplitude = 1e150\n", "preset = blob\nblob_amplitude = 1e300\n"],
        ids=["initial-velocity", "nonfinite-stage"],
    )
    def test_blowup_exits_one_with_forensic_artifacts(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 32\nt_end = 0.1\ndt = 1e-3\noutput_dir = {out}\n" + extra)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg)]) == 1
        assert read_checkpoint(out / "blowup.bqsf").t == 0.0
        records = records_from_csv(out / "diagnostics.csv")
        assert [r.t for r in records] == [0.0]
        initial = vars(records[0])
        assert all(math.isfinite(value) for value in initial.values()), initial
        assert not (out / "final.bqsf").exists()

    def test_stability_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text("n = 32\nt_end = 0.1\npreset = tg-blob\ndt = 0.01\n")
        assert main(["stability", "--config", str(cfg), "--delta", "1e-4"]) == 0
        assert "gamma_fit" in capsys.readouterr().out
