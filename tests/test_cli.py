import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import zenoauger as za
import zenoauger.cli as cli
import zenoauger.propagator as prop
from zenoauger.cli import main
from zenoauger.config import (_KEYS, SWEEP_AXES, build_config, canonical_text,
                              expand, format_float, load_config,
                              parse_config_text, plan)
from zenoauger.drive import MODES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
with mock.patch.dict(os.environ):  # emit_cases pins the BLAS thread count
    import emit_cases  # noqa: E402

FAST_DRIVEN = [
    "--override", "model.N=101",
    "--override", "propagation.T_total=6 fs",
    "--override", "propagation.sample_stride=0.5 fs",
]
FAST = ["--override", "drive.mode=off", *FAST_DRIVEN]

GOOD_CONFIG = """
# minimal explicit configuration
model.E1 = 52.0 eV
model.E2 = 54.5 eV
model.eps_c = 0.0 eV
model.tau1 = 10.0 fs
model.tau2 = inf
model.W = 2.0 eV
model.N = 101
model.n_exponent = 1
drive.mode = off
propagation.T_total = 6.0 fs
propagation.sample_stride = 0.5 fs
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))
            if p.is_file()}


class TestConfigParsing:
    def test_round_trip_of_expanded_form(self):
        cfg = expand(build_config(parse_config_text(GOOD_CONFIG)))
        text = canonical_text(cfg)
        again = expand(build_config(parse_config_text(text)))
        assert canonical_text(again) == text

    def test_preset_expansion_is_idempotent(self):
        cfg = za.preset_config("li")
        text = canonical_text(cfg)
        again = build_config(parse_config_text(text))
        assert canonical_text(again) == text

    def test_missing_unit_suffix_names_key(self):
        bad = GOOD_CONFIG.replace("model.tau1 = 10.0 fs", "model.tau1 = 10.0")
        with pytest.raises(za.ConfigError, match="model.tau1"):
            build_config(parse_config_text(bad))

    def test_wrong_unit_names_key(self):
        bad = GOOD_CONFIG.replace("model.E1 = 52.0 eV", "model.E1 = 52.0 fs")
        with pytest.raises(za.ConfigError, match="model.E1"):
            build_config(parse_config_text(bad))

    def test_non_finite_values_refused_naming_key(self):
        for key, text in (("model.tau1", "inf fs"), ("model.tau2", "-inf fs"),
                          ("model.tau2", "nan fs"), ("drive.Omega", "nan eV"),
                          ("propagation.spectrum_snapshot_times",
                           "5 fs, inf fs")):
            raw = parse_config_text(GOOD_CONFIG)
            raw[key] = text
            with pytest.raises(za.ConfigError, match=key):
                build_config(raw)
        for text in ("inf", "inf fs"):
            raw = parse_config_text(GOOD_CONFIG)
            raw["model.tau2"] = text
            assert build_config(raw).tau2 == math.inf

    def test_unknown_key_rejected(self):
        with pytest.raises(za.ConfigError, match="model.mass"):
            parse_config_text("model.mass = 1.0 au")

    def test_key_given_twice_refused_naming_both_lines(self, tmp_path):
        text = GOOD_CONFIG + "model.E1 = 60.0 eV\n"
        first = GOOD_CONFIG.splitlines().index("model.E1 = 52.0 eV") + 1
        second = len(text.splitlines())
        with pytest.raises(za.ConfigError,
                           match=f"model.E1: .*lines {first} and {second}"):
            parse_config_text(text)
        path = tmp_path / "twice.conf"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        # an override still replaces the value the file gives
        path.write_text(GOOD_CONFIG)
        cfg = load_config(str(path), overrides=["model.E1=60.0 eV"])
        assert cfg.E1 == za.ev_to_au(60.0)

    def test_readme_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        assert [key for key in _KEYS if key not in text] == []

    def test_intensity_and_dipole_derive_rabi(self):
        cfg = expand(za.preset_config("li"))
        assert za.au_to_ev(cfg.Omega) == pytest.approx(0.3, rel=1e-3)
        assert abs(cfg.delta) < 1e-12

    def test_omega_and_delta_conflict(self):
        raw = parse_config_text(GOOD_CONFIG)
        raw["drive.mode"] = "pulsed"
        raw["drive.Omega"] = "0.5 eV"
        raw["drive.omega"] = "3.0 eV"
        raw["drive.delta"] = "1.0 eV"
        with pytest.raises(za.ConfigError, match="delta"):
            expand(build_config(raw))

    def test_format_float_17_digits(self):
        assert format_float(1.0) == "1.0000000000000000e+00"
        assert format_float(math.pi) == "3.1415926535897931e+00"
        assert float(format_float(0.1)) == 0.1
        assert format_float(-0.0) == "-0.0000000000000000e+00"
        assert format_float(5e-324) == "4.9406564584124654e-324"
        assert (format_float(1.7976931348623157e308)
                == "1.7976931348623157e+308")
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"


class TestRunCommand:
    def test_run_emits_standard_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--preset", "li", *FAST, "--out", str(out)])
        assert code == 0
        names = set(read_all(out))
        assert names == {"trace.csv", "spectrum.csv", "summary.json",
                         "config.expanded", "provenance.json"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fit"]["r_squared"] > 0.98
        assert summary["norm_error"] < 1e-9
        provenance = json.loads((out / "provenance.json").read_text())
        assert {"python", "numpy", "scipy"} <= set(provenance)

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--preset", "li", *FAST, "--out", str(out1)])
        main(["run", "--preset", "li", *FAST, "--out", str(out2)])
        assert read_all(out1) == read_all(out2)

    def test_expanded_config_reruns_identically(self, tmp_path):
        for i, extra in enumerate(([], ["--override", "model.tau2=inf fs"])):
            out1 = tmp_path / f"a{i}"
            main(["run", "--preset", "li", *FAST, *extra, "--out", str(out1)])
            echoed = out1 / "config.expanded"
            out2 = tmp_path / f"b{i}"
            code = main(["run", "--config", str(echoed), "--out", str(out2)])
            assert code == 0
            assert read_all(out1) == read_all(out2)

    def test_config_file_loading(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    def test_unreadable_config_is_a_configuration_error(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "missing.conf"
        assert main(["run", "--config", str(missing),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read")
        assert str(missing) in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "t_m", "--values", "0.2,0.3"]])
    def test_uncreatable_out_exits_2_before_running(self, command, tmp_path,
                                                    monkeypatch, capsys):
        # a regular file where a parent directory of --out should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        executed = []
        monkeypatch.setattr(cli, "execute",
                            lambda cfg: executed.append(cfg) or za.execute(cfg))
        code = main([*command, "--preset", "li", "--override",
                     "propagation.T_total=2 fs", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(out) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert executed == []

    def test_malformed_unit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(GOOD_CONFIG + "drive.t_m = 0.32 picoseconds\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "drive.t_m" in capsys.readouterr().err

    def test_recurrence_violation_exits_2(self, tmp_path, capsys):
        code = main(["run", "--preset", "li", "--override", "model.N=41",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "recurrence" in capsys.readouterr().err

    def test_provenance_names_an_unpinned_blas(self, tmp_path, monkeypatch):
        # without numpy's OpenBLAS thread setter a run goes unpinned, and
        # says so; otherwise provenance.json keeps its keys
        pinned = prop.openblas_threads() is not None
        main(["run", "--preset", "li", *FAST, "--out", str(tmp_path / "a")])
        for module in (cli, prop):
            monkeypatch.setattr(module, "openblas_threads", lambda: None)
        assert main(["run", "--preset", "li", *FAST,
                     "--out", str(tmp_path / "b")]) == 0
        keys = [set(json.loads((tmp_path / run / "provenance.json")
                               .read_text())) for run in ("a", "b")]
        assert keys[1] - keys[0] == ({"blas_threads"} if pinned else set())
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv").read_bytes()

    def test_trace_csv_schema(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "--preset", "li", *FAST, "--out", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t_fs,n_c,n_v1,n_v2,n_v3,P1,P2,P_bound,cycle_boundary"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[7]) == 1.0

    def test_tables_match_per_cell_formatting(self):
        # the per-cell joins the array-formatted tables replaced
        def trace_reference(trace):
            lines = ["t_fs,n_c,n_v1,n_v2,n_v3,P1,P2,P_bound,cycle_boundary"]
            columns = (trace.n_c, trace.n_v1, trace.n_v2, trace.n_v3,
                       trace.P1, trace.P2, trace.P_bound)
            for i, t in enumerate(trace.times):
                row = [format_float(za.au_to_fs(float(t)))]
                row += [format_float(float(arr[i])) for arr in columns]
                row.append("1" if trace.cycle_flags[i] else "0")
                lines.append(",".join(row))
            return "\n".join(lines) + "\n"

        def spectrum_reference(trace):
            lines = ["t_fs,region,eps_eV,A,A_per_eV"]
            for spectrum in trace.spectra:
                t_fs = format_float(za.au_to_fs(float(spectrum.time)))
                for region in ("S", "P"):
                    energies, a, d_eps = spectrum.region(region)
                    for eps, weight in zip(energies, a):
                        lines.append(",".join((
                            t_fs, region,
                            format_float(za.au_to_ev(float(eps))),
                            format_float(float(weight)),
                            format_float(float(weight) / za.au_to_ev(d_eps)),
                        )))
            return "\n".join(lines) + "\n"

        trace = za.execute(za.preset_config("li", overrides=[
            "model.N=101", "propagation.T_total=30 fs",
            "propagation.sample_stride=0.5 fs",
            "propagation.spectrum_snapshot_times=5 fs, 12.5 fs, 20 fs",
        ])).trace
        assert len(trace.spectra) == 4
        assert 0 < trace.cycle_flags.sum() < len(trace.times)
        assert cli._trace_csv(trace) == trace_reference(trace)
        assert cli._spectrum_csv(trace) == spectrum_reference(trace)


@pytest.mark.skipif(prop.openblas_threads() is None,
                    reason="numpy's OpenBLAS exports no thread setter")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core")
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the Lanczos read-out is a GEMV whose last bits change with the
    # thread count; propagate pins one thread.  li (S6 steps) and
    # li_rwa_pulsed (Lanczos spaces) of tools/emit_cases.py, run in
    # processes started at one and at two threads
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        argvs = [argv for name, argv in emit_cases.cases(out)
                 if name in ("li", "li_rwa_pulsed")]
        assert len(argvs) == 2
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, (str(Path(cli.__file__).parent.parent),
                                     os.environ.get("PYTHONPATH")))))
        code = ("import json, sys; from zenoauger.cli import main; "
                "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
        subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                       env=env, check=True, capture_output=True, timeout=300)
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 10
    assert trees[0] == trees[1]


class TestSweepCommand:
    def test_sweep_table_and_points(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "li", *FAST_DRIVEN, "--out",
                     str(out), "--axis", "t_m", "--values", "0.16,0.32"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "t_m,tau_eff_envelope_fs,tau_eff_1e_fs,r_squared,status"
        assert len(lines) == 3
        assert (out / "points" / "000" / "summary.json").exists()
        assert (out / "points" / "001" / "summary.json").exists()

    def test_single_value_matches_run(self, tmp_path):
        out_sweep = tmp_path / "sweep"
        out_run = tmp_path / "run"
        main(["sweep", "--preset", "li", *FAST_DRIVEN, "--out",
              str(out_sweep), "--axis", "intensity", "--values", "5.1"])
        main(["run", "--preset", "li", *FAST_DRIVEN, "--out", str(out_run)])
        point = json.loads(
            (out_sweep / "points" / "000" / "summary.json").read_text())
        direct = json.loads((out_run / "summary.json").read_text())
        assert point["fit"] == direct["fit"]

    def test_failed_point_recorded_sweep_continues(self, tmp_path,
                                                   monkeypatch):
        # only what running reveals fails a row: here a solver error
        def execute(point):
            if point.t_m > za.fs_to_au(0.2):
                raise prop.ConvergenceError("Krylov residual above tolerance")
            return za.execute(point)

        monkeypatch.setattr(cli, "execute", execute)
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "li", *FAST_DRIVEN, "--out",
                     str(out), "--axis", "t_m", "--values=0.16,0.32",
                     "--workers", "1"])
        assert code == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].endswith("ok")
        assert lines[2].endswith("error: Krylov residual above tolerance")

    @pytest.mark.parametrize("axis, values, overrides, point", [
        ("Omega2", "0.09,-1", [], "Omega2 = -1.0: squared Rabi energy"),
        ("t_m", "0.2,-0.1", [], "t_m = -0.1: t_m, dt_delay and ramp must"),
        ("t_m", "0.2,0.32", ["model.N=41"], "t_m = 0.2: recurrence bound"),
        ("t_m", "0.2,0.32", ["propagation.krylov_dim=257"],
         "t_m = 0.2: propagation.krylov_dim must lie in [4, 256]"),
    ], ids=["negative_Omega2", "negative_t_m", "recurrence", "krylov_dim"])
    def test_refused_point_exits_2_before_output(self, axis, values,
                                                 overrides, point, tmp_path,
                                                 capsys):
        # every point is planned before anything runs or is written
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "li", "--out", str(out), "--axis",
                     axis, f"--values={values}",
                     *(f"--override={o}" for o in overrides)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"configuration error: sweep point {point}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    def test_values_refused_unless_finite_numbers(self, axis, tmp_path,
                                                  capsys):
        out = tmp_path / "sweep"
        for values in ("nan", "0.2,nan", "inf", "-inf,1", "abc", "1,,x", ","):
            assert main(["sweep", "--preset", "li", *FAST_DRIVEN, "--out",
                         str(out), "--axis", axis, f"--values={values}"]) == 2
            assert "--values" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_intensity_point_runs_field_free(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "li", *FAST_DRIVEN, "--out",
                     str(out), "--axis", "intensity", "--values", "0.0,5.1"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].endswith("ok") and lines[2].endswith("ok")

    @pytest.mark.parametrize("axis", ["Omega2", "intensity"])
    def test_negative_zero_strength_point_is_off(self, axis, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--preset", "li", *FAST_DRIVEN, "--axis", axis,
                     "--values=-0", "--out", str(out)]) == 0
        lines = (out / "points" / "000" / "config.expanded").read_text()
        assert "drive.Omega = 0.0000000000000000e+00 au\n" in lines
        assert "drive.mode = off\n" in lines

    @pytest.mark.parametrize("axis, value", [
        ("Omega2", 0.09 / za.HARTREE_EV**2),
        ("intensity", za.to_atomic(5.1, "TWcm2", "intensity")),
    ])
    def test_strength_axis_needs_no_strength_in_base(self, axis, value):
        base = build_config(parse_config_text(
            GOOD_CONFIG.replace("drive.mode = off", "drive.mode = pulsed")))
        point = plan(za.apply_axis_value(base, axis, value)).config
        assert point.mode == "pulsed" and point.Omega > 0

    def test_point_without_window_expands_like_run(self, tmp_path):
        # the window derives from the Rabi energy: 2 eV for the base's
        # 0.1 eV, 10 eV for the point's 2 eV
        path = tmp_path / "base.conf"
        path.write_text(GOOD_CONFIG.replace("model.W = 2.0 eV\n", "")
                        .replace("drive.mode = off",
                                 "drive.mode = pulsed\ndrive.Omega = 0.1 eV"))
        out_sweep, out_run = tmp_path / "sweep", tmp_path / "run"
        main(["sweep", "--config", str(path), "--axis", "Omega2",
              "--values", "4", "--out", str(out_sweep)])
        rabi = math.sqrt(4 / za.HARTREE_EV**2)
        main(["run", "--config", str(path), "--override",
              f"drive.Omega={format_float(rabi)} au", "--out", str(out_run)])
        point = out_sweep / "points" / "000"
        expanded = dict(line.split(" = ") for line in
                        (point / "config.expanded").read_text().splitlines())
        assert expanded["model.W"] == f"{format_float(5 * rabi)} au"
        for name in ("config.expanded", "trace.csv"):
            assert (point / name).read_bytes() == (out_run / name).read_bytes()

    def test_parallel_workers_match_sequential(self, tmp_path):
        args = ["sweep", "--preset", "li", *FAST_DRIVEN, "--axis", "t_m",
                "--values", "0.2,0.4"]
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        main(args + ["--out", str(out1), "--workers", "1"])
        main(args + ["--out", str(out2), "--workers", "2"])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_pool_no_larger_than_point_count(self, tmp_path, monkeypatch):
        # a stub pool records its size and maps serially, so no process
        # is started whatever --workers asks for
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        args = ["sweep", "--preset", "li", *FAST_DRIVEN, "--axis", "t_m",
                "--values", "0.2,0.4"]
        assert main(args + ["--out", str(tmp_path / "o"),
                            "--workers", "64"]) == 0
        assert sizes == [2]
        for workers in ("0", "-3"):
            out = tmp_path / f"w{workers}"
            assert main(args + ["--out", str(out), "--workers", workers]) == 2
            assert not out.exists()
        assert sizes == [2]


    def test_unknown_axis_exits_2_before_output(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "li", *FAST_DRIVEN, "--axis", "foo",
                  "--values", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("axis, value, value_au", [
        ("Omega2", 0.09, 0.09 / za.HARTREE_EV**2),           # eV^2
        ("intensity", 5.1, za.to_atomic(5.1, "TWcm2", "intensity")),
        ("t_m", 0.16, za.fs_to_au(0.16)),                    # fs
        ("dt_delay", 0.5, za.fs_to_au(0.5)),                 # fs
        ("omega", 2.4, za.ev_to_au(2.4)),                    # eV
    ])
    def test_axis_value_in_documented_unit(self, axis, value, value_au,
                                           tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--preset", "li", *FAST_DRIVEN, "--axis", axis,
                     "--values", repr(value), "--out", str(out)]) == 0
        cfg = za.preset_config("li", overrides=[
            "model.N=101", "propagation.T_total=6 fs",
            "propagation.sample_stride=0.5 fs"])
        expected = canonical_text(za.apply_axis_value(cfg, axis, value_au))
        point = out / "points" / "000" / "config.expanded"
        assert point.read_text() == expected


class TestOtherCommands:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("li", "li_plus", "fig3_circles", "fig3_squares", "fig4"):
            assert name in out

    def test_malformed_workers_env_only_fails_sweep(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("ZENOAUGER_WORKERS", "two")
        assert main(["presets"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "li", "--axis", "t_m",
                  "--values", "0.2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    def test_validate_ok_with_linewidth_note(self, capsys):
        code = main(["validate", "--preset", "li"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_validate_fails_on_recurrence(self, tmp_path, capsys):
        # validate and run refuse with the same one line, warnings left out
        args = ["--preset", "li", "--override", "model.N=41"]
        assert main(["validate", *args]) == 2
        validated = capsys.readouterr()
        assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
        ran = capsys.readouterr()
        assert validated.out == ""
        assert validated.err == ran.err
        assert validated.err.count("\n") == 1
        assert "recurrence" in ran.err and "decrease d_eps" in ran.err
        assert "linewidth" not in ran.err
        assert not (tmp_path / "o").exists()

    def test_run_requires_config_or_preset(self, capsys):
        assert main(["run", "--out", "/tmp/never"]) == 2

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # only square rotating-frame windows take Krylov steps
        monkeypatch.setattr(prop, "MAX_HALVINGS", 0)
        code = main(["run", "--preset", "li", *FAST_DRIVEN,
                     "--override", "drive.mode=rwa_pulsed",
                     "--override", "propagation.krylov_dim=4",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: Krylov residual")
        assert err.count("\n") == 1


# a step or a stride that does not advance the clock at T_total
CLOCK_UNRESOLVED = [
    "propagation.dt_max=5e-324 au",
    "propagation.dt_max=1e-300 au",
    "propagation.sample_stride=5e-324 au",
    "propagation.sample_stride=1e-300 au",
]


class TestValidateAgreesWithRun:
    @pytest.mark.parametrize("override", [
        "propagation.residual_tol=-1",
        "propagation.residual_tol=nan",
        "propagation.krylov_dim=2",
        "propagation.krylov_dim=257",  # above MAX_KRYLOV_DIM
        "propagation.T_total=-5 fs",
        "drive.t_m=-1 fs",
        "propagation.T_total=0.25 fs",  # no stride sample in the fit window
        "propagation.dt_max=-1 fs",
        "propagation.dt_max=0 fs",
        "propagation.sample_stride=-1 fs",
        "propagation.sample_stride=0 fs",
        "propagation.T_total=inf fs",
        "drive.t_m=nan fs",
        "drive.t_m=inf fs",
        "drive.ramp=nan fs",
        "drive.dt_delay=nan fs",
        "drive.Omega=inf eV",
        "drive.omega=inf eV",
        "drive.omega=nan eV",
        "propagation.spectrum_snapshot_times=200 fs",
        "propagation.spectrum_snapshot_times=-3 fs",
        # each would echo "= inf" into a config.expanded that cannot rerun
        "model.tau1=inf fs",
        "propagation.dt_max=inf fs",
        "propagation.sample_stride=inf fs",
        *CLOCK_UNRESOLVED,
        # each implies about 4e15 steps or samples over li's 100 fs
        "propagation.dt_max=1e-12 au",
        "propagation.sample_stride=1e-12 au",
    ])
    def test_refused_by_both(self, override, tmp_path):
        args = ["--preset", "li", "--override", override]
        assert main(["validate", *args]) == 2
        assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2

    def test_largest_krylov_dim_runs(self, tmp_path):
        # 256 vectors fit below li's dimension at N = 201 (404)
        args = ["--preset", "li", "--override", "propagation.krylov_dim=256",
                "--override", "drive.mode=rwa_pulsed",
                "--override", "model.N=201",
                "--override", "propagation.T_total=2 fs"]
        assert main(["validate", *args]) == 0
        assert main(["run", *args, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("override", CLOCK_UNRESOLVED)
    def test_clock_resolution_refusal_names_the_key(self, override, capsys):
        key, value = override.split("=")
        assert main(["validate", "--preset", "li", "--override",
                     override]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert f"{key} = {value}" in line
        assert "does not advance the clock" in line

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 61),
           t_total=st.floats(-1.0, 3.0),
           tol=st.sampled_from(["-1", "0", "nan", "1e-10", "1e-6"]),
           krylov_dim=st.integers(2, 20),
           t_m=st.floats(-0.5, 0.5),
           mode=st.sampled_from(MODES))
    def test_validate_refuses_exactly_what_run_refuses(
            self, n, t_total, tol, krylov_dim, t_m, mode):
        args = ["--preset", "li"]
        for override in (f"model.N={n}", f"propagation.T_total={t_total!r} fs",
                         f"propagation.residual_tol={tol}",
                         f"propagation.krylov_dim={krylov_dim}",
                         f"drive.t_m={t_m!r} fs", f"drive.mode={mode}"):
            args += ["--override", override]
        validated = main(["validate", *args])
        with tempfile.TemporaryDirectory() as out:
            ran = main(["run", *args, "--out", out])
        assert (validated == 2) == (ran == 2), (validated, ran)
