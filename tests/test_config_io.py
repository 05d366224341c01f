"""Configuration parsing, artifact formats, determinism, resume, CLI."""

import ast
import contextlib
import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqsim
from bqsim import (
    CheckpointError,
    ConfigurationError,
    DiagnosticsTracker,
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
from bqsim.runner import StabilityReport, perturbed_initial_state, stability_experiment

ROOT = Path(__file__).resolve().parents[1]
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

    def test_echo_keeps_checkpoint_times_exact(self):
        times = "checkpoint_times = 0.1234567, 0.1234568\n"
        cfg = parse_config("n = 64\nt_end = 1\npreset = zero\n" + times)
        assert "checkpoint_times = 0.1234567,0.1234568" in config_echo(cfg)


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


class TestCheckedOnce:
    """`hermitian_defect` runs once for each field built from outside data, in the
    `SpectralField` constructor, and never again on that field's way through the solver."""

    def test_each_field_from_outside_data_is_checked_once(self, symmetry_checks):
        g = Grid(32)
        field = SpectralField(g, random_scalar_field(g, 2.0, 1.0, (1,)).coeffs)
        state = make_initial_data(parse_config(STAB))
        built = [field, state.omega_hat, state.theta_hat]
        assert [id(c) for c in symmetry_checks] == [id(f.coeffs) for f in built]

    def test_the_cli_checks_each_checkpoint_field_once(self, tmp_path, symmetry_checks):
        """`read_checkpoint` checks finiteness only; `norms` and `run --resume` rebuild
        both fields through the constructor."""
        ckpt = tmp_path / "state.bqsf"
        write_checkpoint(ckpt, make_initial_data(parse_config(STAB)))
        symmetry_checks.clear()
        read_checkpoint(ckpt)
        assert symmetry_checks == []
        assert main(["norms", "--checkpoint", str(ckpt)]) == 0
        assert len(symmetry_checks) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(STAB)
        argv = ["run", "--config", str(cfg), "--resume", str(ckpt), "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert len(symmetry_checks) == 4

    def test_a_whole_run_checks_its_two_initial_fields(self, tmp_path, symmetry_checks):
        """Adaptive steps, a record after each and a checkpoint, from `make_initial_data`."""
        config = "n = 32\nt_end = 0.05\npreset = tg-blob\ndiag_cadence = 1\ncheckpoint_times = 0.02\n"
        result = run(parse_config(config), output_dir=tmp_path)
        assert result.steps_taken > 1 and len(result.records) == result.steps_taken + 1
        assert (tmp_path / "checkpoint_000.bqsf").exists()
        assert len(symmetry_checks) == 2


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

    @pytest.mark.parametrize(
        "mutate",
        [lambda row: row + ",99", lambda row: row.rsplit(",", 1)[0],
         lambda row: row.rsplit(",", 1)[0] + ",abc"],
        ids=["extra-value", "missing-value", "not-a-float"],
    )
    def test_reader_rejects_rows_the_writer_never_writes(self, tmp_path, mutate):
        run(parse_config("n = 32\nt_end = 0.05\npreset = tg-blob\n"), output_dir=tmp_path)
        path = tmp_path / "diagnostics.csv"
        lines = path.read_text().splitlines()
        lines[-1] = mutate(lines[-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=f"diagnostics.csv, line {len(lines)}: "):
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

    def test_the_parser_is_built_once_and_parses_alike_after_a_usage_error(self, tmp_path, capsys):
        """`main` builds its parser once per process: a verify op, a usage error and the same op
        again print the same, and only the first call builds one."""
        bqsim.cli._build_parser.cache_clear()
        argv = ["verify", "--suite", "power-map", "--n", "16", "--count", "2",
                "--output-dir", str(tmp_path)]
        outputs = []
        for args in (argv, ["verify", "--suite", "no-such-suite"], argv):
            outputs.append((main(args), *capsys.readouterr()))
        assert outputs[0] == outputs[2] and outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[1][:2] == (2, "") and "invalid choice: 'no-such-suite'" in outputs[1][2]
        assert bqsim.cli._build_parser.cache_info().misses == 1

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

    @staticmethod
    def asymmetric_checkpoint(tmp_path):
        """An n = 32 tg-blob checkpoint whose Re theta[1, 2] is raised by 0.3 in the file."""
        ckpt, n = tmp_path / "state.bqsf", 32
        write_checkpoint(ckpt, make_initial_data(parse_config(BASE.replace("n = 64", f"n = {n}"))))
        blob = bytearray(ckpt.read_bytes())
        at = struct.calcsize("<4sIIdd") + 16 * (n * n + 1 * n + 2)  # after the n * n of omega
        struct.pack_into("<d", blob, at, struct.unpack_from("<d", blob, at)[0] + 0.3)
        ckpt.write_bytes(bytes(blob))
        return ckpt

    def test_asymmetric_checkpoint_exits_two_before_printing(self, tmp_path, capsys):
        ckpt = self.asymmetric_checkpoint(tmp_path)
        assert main(["norms", "--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {ckpt}: conjugate symmetry broken")

    def test_asymmetric_checkpoint_is_not_resumed(self, tmp_path, capsys):
        ckpt, out = self.asymmetric_checkpoint(tmp_path), tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nt_end = 0.1\npreset = tg-blob\n")
        argv = ["run", "--config", str(cfg), "--resume", str(ckpt), "--output-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {ckpt}: conjugate symmetry broken")

    OVERFLOWING = pytest.mark.parametrize("argv, config", [
        ("run --config {cfg} --output-dir {out}",
         "n = 32\nt_end = 0.1\npreset = taylor-green\ntg_amplitude = 1e308\namplitude = 1e10\n"),
        ("verify --suite product --n 32 --spectrum-gamma -1000 --output-dir {out}", None),
        ("verify --suite product --n 32 --amplitude 1e300 --spectrum-gamma -50 --output-dir {out}", None),
    ], ids=["initial-data", "random-draw", "random-draw-product"])

    @OVERFLOWING
    def test_overflowing_input_is_bad_input(self, tmp_path, capsys, argv, config):
        """Where outside numbers enter (`make_initial_data`, `random_scalar_field`), an
        overflow is bad input, reported before anything is written."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        if config is not None:
            cfg.write_text(config)
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's warnings are not the report
            assert main(argv.format(cfg=cfg, out=out).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == ["error: spectral coefficients contain non-finite values"]

    @OVERFLOWING
    @pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["warn", "warnings-are-errors"])
    def test_overflowing_input_prints_only_the_error_line(self, tmp_path, argv, config, warnings):
        """numpy's floating-point warnings reach no stderr: the transforms and the draw that
        overflow are checked for finiteness where outside numbers enter."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        if config is not None:
            cfg.write_text(config)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *warnings, "-m", "bqsim.cli", *argv.format(cfg=cfg, out=out).split()],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == ["error: spectral coefficients contain non-finite values"]

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

    def test_verify_header_records_the_whole_ensemble(self, tmp_path, capsys):
        headers = set()
        for i, extra in enumerate(([], ["--spectrum-gamma", "1.5"], ["--amplitude", "3"])):
            out = tmp_path / f"run{i}"
            argv = ["verify", "--suite", "kernel", "--n", "32", "--count", "2", *extra]
            assert main([*argv, "--output-dir", str(out)]) in (0, 1)
            headers.add((out / "kernel.csv").read_text().split("\nsample_id,")[0])
        assert len(headers) == 3

    def test_verify_rejects_foreign_parameter(self, tmp_path, capsys):
        code = main([
            "verify", "--suite", "log-interp", "--count", "2", "--n", "32",
            "--beta", "3.0", "--output-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, flag, value, named",
        [
            ("product", "--spectrum-gamma", "inf", "spectrum_gamma"),
            ("product", "--spectrum-gamma", "nan", "spectrum_gamma"),
            ("product", "--amplitude", "nan", "amplitude"),
            ("product", "--amplitude", "inf", "amplitude"),
            ("power-map", "--beta", "nan", "exponent beta"),
            ("gen-bernstein", "--r", "nan", "exponent r"),
            ("commutator-hs", "--s", "nan", "regularity s"),
            ("commutator-bp", "--p", "nan", "exponent p"),
            ("kernel", "--p", "nan", "exponent p"),
        ],
    )
    def test_verify_rejects_non_finite_parameter_by_name(
        self, tmp_path, capsys, suite, flag, value, named
    ):
        code = main([
            "verify", "--suite", suite, "--count", "2", "--n", "32",
            flag, value, "--output-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert named in captured.err
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("gamma_fit, code", [
        (0.5, 1), (0.94, 1), (0.96, 0), (1.0, 0), (1.04, 0), (1.06, 1), (-1.0, 1), (math.nan, 1),
    ])
    def test_stability_verdict_is_a_lipschitz_fit(self, tmp_path, capsys, monkeypatch,
                                                  gamma_fit, code):
        """Only |gamma_fit - 1| <= 0.05 passes: a mis-scaled perturbation reads 0.5."""
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(STAB)
        report = StabilityReport(1e-4, gamma_fit, (0.0,), (1e-4,), (2.5e-5,))
        monkeypatch.setattr(bqsim.cli, "stability_experiment", lambda config, delta: report)
        assert main(["stability", "--config", str(cfg), "--delta", "1e-4"]) == code
        assert ("PASS" if code == 0 else "FAIL") + " stability" in capsys.readouterr().out


STAB = "n = 32\nt_end = 0.1\npreset = tg-blob\ndt = 0.01\n"
BLOWUP = "n = 32\nt_end = 0.1\ndt = 1e-3\npreset = random\namplitude = 1e150\n"
NOT_UTF8 = BASE.encode() + b"# caf\xe9\n"  # Latin-1 bytes


class TestFailureKinds:
    """`main` maps every failure to one line: a blow-up to stdout and exit 1,
    bad input, a bad checkpoint or an unreadable file to stderr and exit 2.

    `{cfg}` is the case's config file, `{dir}` a directory and `{ckpt}` a
    checkpoint of BASE (n = 64, alpha = 1).
    """

    @pytest.mark.parametrize("config, argv, code, named", [
        pytest.param("n = 32\nt_end = 0.1\npreset = random\nseed = -1\n", "run --config {cfg}", 2,
                     "config key 'seed': must be >= 0, got -1", id="seed"),
        pytest.param(None, "verify --suite kernel --count 2 --n 32 --seed -1 --output-dir {dir}",
                     2, "seed", id="verify-seed"),
        pytest.param(None, "run --config {dir}", 2, "Is a directory", id="run-config-dir"),
        pytest.param(None, "norms --checkpoint {dir}", 2, "Is a directory",
                     id="norms-checkpoint-dir"),
        pytest.param(NOT_UTF8, "run --config {cfg}", 2, "not UTF-8", id="run-not-utf8"),
        pytest.param(NOT_UTF8, "stability --config {cfg} --delta 1e-4", 2, "not UTF-8",
                     id="stability-not-utf8"),
        pytest.param(STAB, "stability --config {cfg} --delta nan", 2, "delta", id="delta-nan"),
        pytest.param(STAB, "stability --config {cfg} --delta inf", 2, "delta", id="delta-inf"),
        pytest.param(BLOWUP, "stability --config {cfg} --delta 1e-4", 1, "initial velocity",
                     id="stability-blowup"),
        pytest.param(BLOWUP, "run --config {cfg}", 1, "initial velocity", id="run-blowup"),
        pytest.param("n = 64\npreset = tg-blob\nt_end = -1\n", "run --config {cfg}", 2, "'t_end'",
                     id="t_end"),
        pytest.param(BASE + "cfl = 0\n", "run --config {cfg}", 2, "'cfl'", id="cfl"),
        pytest.param(BASE + "dt = 0\n", "run --config {cfg}", 2, "'dt'", id="dt"),
        pytest.param(BASE + "diag_cadence = 0\n", "run --config {cfg}", 2, "'diag_cadence'",
                     id="diag_cadence"),
        pytest.param(BASE + "blob_width = 0\n", "run --config {cfg}", 2, "'blob_width'",
                     id="blob_width"),
        pytest.param("n = 32\nt_end = 0.1\npreset = tg-blob\n", "run --config {cfg} --resume {ckpt}",
                     2, "n=64", id="resume-n"),
        pytest.param(BASE + "alpha = 0.5\n", "run --config {cfg} --resume {ckpt}", 2, "alpha=1.0",
                     id="resume-alpha"),
        pytest.param(None, "norms --checkpoint {ckpt} --besov 1,2", 2, "--besov",
                     id="besov-two-parts"),
        pytest.param(None, "norms --checkpoint {ckpt} --besov a,b,c", 2, "--besov",
                     id="besov-not-numbers"),
        pytest.param(None, "verify --suite block-commutator --variant b2a --p inf --count 2 --n 32"
                     " --output-dir {dir}", 2, "'b2a' requires finite p", id="b2a-infinite-p"),
    ])
    def test_each_failure_is_one_line_of_its_kind(self, tmp_path, capsys, config, argv, code, named):
        cfg, ckpt, out = tmp_path / "case.cfg", tmp_path / "state.bqsf", tmp_path / "out"
        if config is not None:
            (cfg.write_bytes if isinstance(config, bytes) else cfg.write_text)(config)
        write_checkpoint(ckpt, make_initial_data(parse_config(BASE)))
        out.mkdir()
        args = argv.format(cfg=cfg, dir=out, ckpt=ckpt).split()
        if args[0] == "run":
            args += ["--output-dir", str(out)]
        with np.errstate(over="ignore", invalid="ignore") if code == 1 else contextlib.nullcontext():
            assert main(args) == code
        captured = capsys.readouterr()
        lines, silent = (captured.out, captured.err) if code == 1 else (captured.err, captured.out)
        assert silent == ""
        [line] = lines.splitlines()
        assert line.startswith("blow-up detected at t=" if code == 1 else "error: ")
        assert named in line
        if code == 2:
            assert not list(out.iterdir())

    def test_a_replaced_config_is_validated_and_none_is_mutated(self):
        config = parse_config(BASE)
        with pytest.raises(ConfigurationError, match="config key 'diag_cadence'"):
            dataclasses.replace(config, diag_cadence=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.diag_cadence = 0

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in FLOAT_KEYS if key != "checkpoint_times"
         for value in (math.nan, math.inf, -math.inf) if (key, value) != ("omega_lr", math.inf)],
    )
    def test_a_replaced_config_rejects_non_finite_numbers_by_name(self, key, value):
        """Not only the parser: an infinite t_end built in code would never stop a run."""
        with pytest.raises(ConfigurationError, match=f"config key '{key}'"):
            dataclasses.replace(parse_config(BASE), **{key: value})

    def test_a_replaced_config_may_take_an_infinite_omega_lr(self):
        assert dataclasses.replace(parse_config(BASE), omega_lr=math.inf).omega_lr == math.inf

    @pytest.mark.parametrize("times", [(math.nan,), (-1.0,), (0.0,)], ids=["nan", "negative", "zero"])
    def test_a_replaced_config_rejects_bad_checkpoint_times_by_name(self, times):
        with pytest.raises(ConfigurationError, match="config key 'checkpoint_times'"):
            dataclasses.replace(parse_config(BASE), checkpoint_times=times)

    def test_run_rejects_an_initial_state_of_another_grid_and_alpha(self, tmp_path):
        config = parse_config("n = 32\nt_end = 0.1\npreset = tg-blob\n")
        foreign = make_initial_data(parse_config(BASE + "alpha = 0.5\n"))
        with pytest.raises(ConfigurationError, match="n=64, alpha=0.5") as info:
            run(config, output_dir=tmp_path / "out", initial_state=foreign)
        assert "n=32, alpha=1.0" in str(info.value)
        assert not (tmp_path / "out").exists()

    def test_stability_to_t_end_zero_keeps_adaptive_stepping(self):
        """A fixed dt forced from t_end / 16 would be 0, which `RunConfig` rejects."""
        report = stability_experiment(parse_config("n = 32\nt_end = 0\npreset = tg-blob\n"), 1e-4)
        assert report.times == (0.0,) and report.gamma_fit == pytest.approx(1.0)


class TestSteppingLoop:
    """`run` and `stability_experiment` share the runner's one stepping loop."""

    def test_only_the_runner_trajectory_calls_step(self):
        """A second stepping loop in `src/bqsim` cannot grow back."""
        callers = []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            owner = {}
            for func in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
                for node in ast.walk(func):  # walk order: an inner def overwrites its outer one
                    owner[id(node)] = func.name
            callers += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "step"]
        assert callers == [("runner.py", "_trajectory")]

    def test_stability_makes_no_diagnostics_records(self, monkeypatch):
        recorded = []
        record = DiagnosticsTracker.record
        monkeypatch.setattr(DiagnosticsTracker, "record",
                            lambda self, state: recorded.append(state.t) or record(self, state))
        stability_experiment(parse_config(STAB), 1e-4)
        assert recorded == []

    def test_a_bad_delta_exits_before_any_step(self, tmp_path, monkeypatch, capsys):
        steps = []
        step = bqsim.runner.step
        monkeypatch.setattr(bqsim.runner, "step",
                            lambda state, dt: steps.append(dt) or step(state, dt))
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(STAB)
        assert main(["stability", "--config", str(cfg), "--delta", "nan"]) == 2
        assert steps == []

    def test_a_huge_base_keeps_its_perturbation_shape(self):
        """The shape is measured alone, so a base of 1e150 cannot round it to zero."""
        base = make_initial_data(parse_config("n = 32\nt_end = 0.1\npreset = random\n"))
        huge = SimState(base.t, base.omega_hat * 1e150, base.theta_hat * 1e150, base.alpha)
        assert isinstance(perturbed_initial_state(huge, 1e-4), SimState)

    def test_stability_samples_the_times_run_records(self):
        config = parse_config(STAB + "diag_cadence = 3\ncheckpoint_times = 0.05\n")
        report = stability_experiment(config, 1e-4)
        records = run(config, write_artifacts=False).records
        assert report.times == tuple(r.t for r in records)
        assert len(report.times) == 5  # t = 0, steps 3, 6, 9 and the last, step 10
