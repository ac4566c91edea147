"""Config parsing, scenario presets, run artifacts and the check suite."""

import contextlib
import gc
import io
import json
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastislab import cli
from elastislab.errors import ConfigInvalid, PreconditionViolated
from elastislab.snapshots import read_snapshot


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_roundtrip_through_text(self, tmp_path):
        cfg = cli.preset("mixed-regions", n1=16, n2=16, nz=17, seed=7)
        path = _write(tmp_path, cli.config_text(cfg))
        back, explicit = cli.load_config(path)
        assert back == cfg
        assert "grid" in explicit and "seed" in explicit

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = _write(tmp_path, "# header\n\nschema = 1\nscenario = rest  # eh\n")
        cfg, explicit = cli.load_config(path)
        assert cfg.scenario == "rest"
        assert explicit == frozenset({"scenario"})

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = _write(tmp_path, "schema = 1\nbogus = 3\n")
        with pytest.raises(ConfigInvalid, match="line 2.*bogus"):
            cli.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "schema = 1\neps = 0.1\neps = 0.2\n")
        with pytest.raises(ConfigInvalid, match="duplicate"):
            cli.load_config(path)

    def test_schema_required_and_versioned(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="schema"):
            cli.load_config(_write(tmp_path, "scenario = rest\n"))
        with pytest.raises(ConfigInvalid, match="schema"):
            cli.load_config(_write(tmp_path, "schema = 2\n", "v2.cfg"))

    def test_typed_value_errors_name_the_field(self, tmp_path):
        path = _write(tmp_path, "schema = 1\neps = fast\n")
        with pytest.raises(ConfigInvalid, match="eps"):
            cli.load_config(path)

    def test_grid_format(self):
        assert cli._parse_grid("16x16x17") == (16, 16, 17)
        for bad in ("16x16", "axbxc", "0x4x5"):
            with pytest.raises(ConfigInvalid):
                cli._parse_grid(bad)
        # well-formed but odd horizontal sizes fail validation, not SlabGrid
        for n1, n2 in ((10, 9), (9, 10), (9, 9)):
            with pytest.raises(ConfigInvalid, match="even"):
                cli.preset("rest", n1=n1, n2=n2, nz=9)

    def test_validation_collects_field_messages(self):
        with pytest.raises(ConfigInvalid) as err:
            cli.preset("rest", t_final=-1.0, seed=-2)
        assert "t_final" in str(err.value) and "seed" in str(err.value)
        # non-finite numbers are rejected before anything runs
        for key in ("t_final", "dt", "eps", "output_interval"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigInvalid, match=f"{key}: must be finite"):
                    cli.preset("rest", **{key: value})
        # the seeded mode must lie below Nyquist on both axes
        cli.preset("elastic-mode", n1=12, n2=12, nz=13, mode1=5, mode2=-5)
        for modes in ({"mode1": 6}, {"mode1": -7}, {"mode2": -6}):
            name = next(iter(modes))
            with pytest.raises(ConfigInvalid, match=f"{name}: .* below n/2 = 6"):
                cli.preset("elastic-mode", n1=12, n2=12, nz=13, **modes)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigInvalid, match="scenario"):
            cli.preset("vortex")

    def test_unknown_override_rejected(self):
        # a key that is no RunConfig field (the file key 'grid' included)
        # is a config error naming it, not a TypeError from the dataclass
        for overrides in ({"foo": 1}, {"grid": (8, 8, 9)}):
            name = next(iter(overrides))
            with pytest.raises(ConfigInvalid, match=f"unknown setting.*{name}"):
                cli.preset("rest", **overrides)


class TestScenarioBuilders:
    def test_rest_is_zero(self):
        st = cli.build_scenario(cli.preset("rest", n1=8, n2=8, nz=9))
        assert np.max(np.abs(st.f)) == 0.0
        assert np.max(np.abs(st.u)) == 0.0
        assert np.max(np.abs(st.F)) == 0.0

    def test_elastic_mode_background(self):
        cfg = cli.preset("elastic-mode", n1=12, n2=12, nz=13)
        st = cli.build_scenario(cfg)
        x1, _ = st.grid.horizontal_meshes()
        assert np.max(np.abs(st.f - 1e-3 * np.cos(x1))) < 1e-12
        assert np.max(np.abs(st.u)) < 1e-12
        # the trace projection adjusts the columns by order amplitude
        assert abs(np.mean(st.F[0, 0]) - 1.0) < 5e-3
        assert abs(np.mean(st.F[1, 1]) - 1.0) < 5e-3


class TestRunCommand:
    def test_rest_artifacts(self, tmp_path):
        out = tmp_path / "rest"
        assert cli.main(["run", "--grid", "8x8x9", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["reason"] == "completed"
        assert result["t_end"] == pytest.approx(0.1)
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 1 + 6
        total_col = cli.stab.DIAGNOSTIC_COLUMNS.index("total")
        for line in lines[1:]:
            assert float(line.split(",")[total_col]) < 1e-12
        back, _ = cli.load_config(out / "config.resolved")
        assert back.scenario == "rest"
        assert (back.n1, back.n2, back.nz) == (8, 8, 9)

    def test_snapshot_schedule(self, tmp_path):
        out = tmp_path / "snaps"
        path = _write(tmp_path, "schema = 1\nscenario = rest\n"
                                "grid = 8x8x9\nsnapshot_interval = 0.04\n")
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("snap_*_u.bin"))
        assert names == ["snap_000000_u.bin", "snap_000002_u.bin",
                         "snap_000004_u.bin"]
        snap = read_snapshot(out / "snap_000002_u.bin")
        assert snap.values.shape == (3, 8, 8, 9)
        assert np.max(np.abs(snap.values)) < 1e-12
        assert (out / "snap_000002_F1.bin").exists()

    def test_monitored_run_halts_on_stability_loss(self, tmp_path):
        # the rest state claims no stability; asking for a positive
        # constant must produce a typed halt with the last row recorded
        out = tmp_path / "halt"
        path = _write(tmp_path, "schema = 1\nscenario = rest\n"
                                "grid = 8x8x9\nc0 = 0.1\n")
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        result = json.loads((out / "result.json").read_text())
        assert result["reason"] == "StabilityLost"
        assert "taylor_min" in result["message"]
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_elastic_mode_records_frequency(self, tmp_path):
        out = tmp_path / "osc"
        path = _write(tmp_path, "schema = 1\nscenario = elastic-mode\n"
                                "grid = 12x12x13\nt_final = 3.0\n")
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["rel_error"] < 0.05
        assert result["measured_omega"] == pytest.approx(1.0, abs=0.02)

    def test_mode_coefficient_is_real_part_of_fft2(self, rng):
        f = rng.standard_normal((12, 10))
        for k1, k2 in ((0, 0), (1, 0), (0, -2), (-1, 3), (-5, -4), (6, 5)):
            want = np.fft.fft2(f)[k1 % 12, k2 % 10].real
            assert cli._mode_coefficient(f, k1, k2) == pytest.approx(
                want, rel=0, abs=1e-13)

    def test_elastic_run_makes_no_fft(self, tmp_path, monkeypatch):
        # the mode readout, the steps and the outputs of a run are real
        # matrix products; only the seeded check data draw through np.fft
        calls = []
        for name in dir(np.fft):
            fn = getattr(np.fft, name)
            if callable(fn) and not name.startswith("_"):
                def counted(*args, _name=name, _fn=fn, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
        path = _write(tmp_path, "schema = 1\nscenario = elastic-mode\n"
                                "grid = 8x8x9\nt_final = 0.2\n"
                                "output_interval = 0.1\n")
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "osc")]) == 0
        result = json.loads((tmp_path / "osc" / "result.json").read_text())
        assert result["steps"] > 2
        assert calls == []

    def test_outputs_retain_no_arrays(self, tmp_path, monkeypatch):
        # each output does the same work, so the traced heap after the
        # last one is the heap after the first plus the recorded rows
        energy = cli.stab.energy_es_eps
        current = []

        def traced(*args, **kwargs):
            out = energy(*args, **kwargs)
            gc.collect()
            current.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(cli.stab, "energy_es_eps", traced)
        # c0 = 0 turns the stability monitor off: on a grid this small the
        # mixed-regions preset halts at t = 0
        path = _write(tmp_path, "schema = 1\nscenario = mixed-regions\n"
                                "grid = 8x8x9\nc0 = 0\n")
        tracemalloc.start()
        try:
            assert cli.main(["run", "--config", str(path),
                             "--out", str(tmp_path / "mixed")]) == 0
        finally:
            tracemalloc.stop()
        assert len(current) == 5
        assert current[-1] <= current[0] + 64 * 1024

    @pytest.mark.parametrize("command, body, grid, code, reason", [
        ("run", "what = 1\n", None, 2, None),
        ("run", "", "10x9x9", 2, None),
        ("run", "grid = 8x8x9\nt_final = nan\n", None, 2, None),
        ("run", "scenario = elastic-mode\ngrid = 8x8x9\ndt = 5.0\n", None,
         3, "PreconditionViolated"),
        ("run", "scenario = mixed-regions\ngrid = 8x8x9\namplitude = 2.0\n",
         None, 3, "DegenerateMap"),
        ("run", "scenario = rest\ngrid = 8x8x9\nc0 = 0.1\n", None, 3,
         "StabilityLost"),
        ("run", "scenario = elastic-mode\ngrid = 12x12x13\nmode1 = 6\n", None,
         2, None),
        ("run", "scenario = mixed-regions\noutput_interval = 1e-12\n", None,
         2, None),
        ("run", "scenario = mixed-regions\ndt = 1e-12\n", None, 2, None),
        # 10,000 outputs pass validate; half stable_dt is about 0.06
        ("run", "scenario = elastic-mode\ngrid = 8x8x9\nt_final = 1e5\n"
         "output_interval = 10\n", None, 2, None),
        ("run", "", "4096x4096x4097", 2, None),
        # one dense nz x nz vertical matrix alone would be 80 GB
        ("run", "", "4x4x100001", 2, None),
        # dispersion steps at fixed dt: at this amplitude the first regime's
        # dt = 0.02 is above the stable bound of about 0.0196
        ("dispersion", "scenario = elastic-mode\namplitude = 0.6\n",
         "12x12x13", 3, "PreconditionViolated"),
        # checks steps at fixed dt too; the smallest grid seen to halt it
        # is 4x4x2049, so here its steps are made to refuse (see below)
        ("checks", "", "8x8x9", 3, "PreconditionViolated"),
    ], ids=["unknown-key", "odd-grid", "non-finite-value", "dt-above-bound",
            "degenerate-map", "stability-loss", "mode-past-nyquist",
            "outputs-above-cap", "steps-above-cap", "stable-steps-above-cap",
            "grid-above-memory", "levels-above-memory",
            "dispersion-dt-above-bound", "checks-dt-above-bound"])
    def test_failure_table(self, tmp_path, capsys, monkeypatch, command, body,
                           grid, code, reason):
        # config errors (2) write no result.json;
        # physical halts (3) record the exception name and a message,
        # with the diagnostics written so far (run) or print them
        # (dispersion and checks, which write no partial table)
        if command == "checks":
            def refused(state, dt, **kwargs):
                raise PreconditionViolated(
                    f"dt = {dt:.3e} exceeds the stable bound {0.5 * dt:.3e}")

            monkeypatch.setattr(cli.dyn, "step", refused)
        out = tmp_path / "fail"
        argv = [command, "--config",
                str(_write(tmp_path, "schema = 1\n" + body)), "--out", str(out)]
        assert cli.main(argv + (["--grid", grid] if grid else [])) == code
        if reason is None:
            assert not (out / "result.json").exists()
        elif command in ("dispersion", "checks"):
            printed = capsys.readouterr().out
            assert reason in printed and "exceeds the stable bound" in printed
            assert not list(out.glob("*.*"))
        else:
            result = json.loads((out / "result.json").read_text())
            assert result["reason"] == reason
            assert result["message"]
            assert (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("body, bound", [
        ("scenario = elastic-mode\ngrid = 8x8x9\nt_final = 1e5\n"
         "output_interval = 10\n", "MAX_STEPS"),
        ("grid = 4096x4096x4097\n", "PEAK_BYTES_PER_NODE"),
        ("grid = 4x4x100001\n", "PEAK_BYTES_PER_NZ2"),
        # refused before any work: one energy at s = 30 would take weeks
        ("scenario = mixed-regions\ns = 30\n", "MAX_S"),
    ], ids=["stable-steps", "grid-memory", "levels-memory", "energy-index"])
    def test_refusal_names_its_bound(self, tmp_path, capsys, body, bound):
        argv = ["run", "--config", str(_write(tmp_path, "schema = 1\n" + body)),
                "--out", str(tmp_path / "fail")]
        assert cli.main(argv) == 2
        assert bound in capsys.readouterr().err


# Small grids, few outputs and at most about 20 steps only: the fuzz checks
# how a run ends, never a large grid, a large s or a long run.  Each example
# draws a grid, a t_final and some other keys in range, and may put one key
# out of range (mode1 = 4 is at or past Nyquist on every grid drawn).
FUZZ_GRID = st.tuples(st.sampled_from([4, 6, 8]), st.sampled_from([4, 6, 8]),
                     st.integers(3, 9)).map(lambda g: "%dx%dx%d" % g)
FUZZ_KEYS = {
    "scenario": st.sampled_from(cli.SCENARIOS),
    "eps": st.sampled_from([0.0, 0.01, 1.0]),
    "c0": st.sampled_from([0.0, 0.05, 0.3]),
    "s": st.integers(4, 5),
    "amplitude": st.sampled_from([0.0, 1e-3, 0.05, 0.6, 2.0]),
    "stretch": st.sampled_from([0.0, 0.8, 1.5]),
    "mode1": st.integers(-2, 2),
    "mode2": st.integers(-2, 2),
    "dt": st.sampled_from([0.0, 0.005, 0.05]),
    "output_interval": st.sampled_from([0.01, 0.05]),
    "snapshot_interval": st.sampled_from([0.0, 0.02]),
    "seed": st.integers(0, 3),
}
FUZZ_OUT_OF_RANGE = {
    "scenario": "wave", "grid": "3x4x9", "s": 3, "eps": -0.1,
    "stretch": -1.0, "mode1": 4, "t_final": 0.0, "output_interval": 0.0,
    "seed": -1,
}


class TestRunFuzz:
    @settings(max_examples=25, deadline=None)
    @given(st.fixed_dictionaries({"grid": FUZZ_GRID,
                                  "t_final": st.sampled_from([0.01, 0.05])},
                                 optional=FUZZ_KEYS),
           st.one_of(st.just({}),
                     st.sampled_from(sorted(FUZZ_OUT_OF_RANGE.items()))
                     .map(lambda item: dict([item]))))
    def test_every_config_ends_with_a_documented_code(self, keys, bad):
        # 0 completed, 2 refused (no result.json), 3 halted (the exception
        # named in result.json); anything else escapes as a traceback
        body = "".join(f"{key} = {value}\n"
                       for key, value in {**keys, **bad}.items())
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            out = tmp / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config",
                                 str(_write(tmp, "schema = 1\n" + body)),
                                 "--out", str(out)])
            assert code in (0, 2, 3), body
            assert code == 2 or not bad, body
            if code == 2:
                assert "config error" in err.getvalue()
                assert not (out / "result.json").exists()
            else:
                reason = json.loads((out / "result.json").read_text())["reason"]
                assert (reason == "completed") == (code == 0), body


class TestChecksCommand:
    def test_report_structure_and_exact_entries(self, tmp_path):
        report = cli.run_checks(cli.preset("rest", n1=8, n2=8, nz=9))
        assert report["passed"] + report["failed"] == len(report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert {"dn_symbol_dirichlet", "transport_invariants",
                "evo_residual", "commutator_material_transport"} <= names
        # coarse grids may miss resolution targets, never exact ones
        for c in report["checks"]:
            if c["kind"] == "exact":
                assert c["pass"], c

    def test_bit_identical_reruns(self, tmp_path):
        args = ["checks", "--grid", "8x8x9", "--seed", "11"]
        cli.main(args + ["--out", str(tmp_path / "a")])
        cli.main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "checks.json").read_bytes()
        b = (tmp_path / "b" / "checks.json").read_bytes()
        assert a == b

    def test_corrupted_solver_is_caught(self):
        report = cli.run_checks(cli.preset("rest", n1=8, n2=8, nz=9),
                                corrupt=True)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not report["all_pass"]
        for name in ("dn_symbol_dirichlet", "dn_symbol_neumann",
                     "dn_self_adjoint", "dn_roundtrip"):
            assert not by_name[name]["pass"]
        assert by_name["commutator_material_horizontal"]["pass"]
        assert by_name["spectral_parseval"]["pass"]


class TestConvergenceCommand:
    def test_spatial_study(self, tmp_path):
        out = tmp_path / "conv"
        path = _write(tmp_path, "schema = 1\nstudy = spatial\n")
        assert cli.main(["convergence", "--config", str(path),
                         "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert rows[0] == "study,label,measured,expected"
        order_row = [r for r in rows[1:] if r.split(",")[1] == "order"]
        assert float(order_row[0].split(",")[2]) >= 1.9

    def test_spatial_study_on_the_smallest_grid(self, tmp_path):
        # validate accepts 4x4x5; the study's mode must still be resolved
        path = _write(tmp_path, "schema = 1\nstudy = spatial\n")
        assert cli.main(["convergence", "--config", str(path), "--grid",
                         "4x4x5", "--out", str(tmp_path / "conv")]) == 0

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigInvalid, match="study"):
            cli.preset("rest", study="everything")


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(section, lang):
    """The first fenced block of a language under a README heading."""
    text = README.read_text().split(f"\n## {section}\n")[1]
    return text.split(f"```{lang}\n")[1].split("```")[0]


class TestReadmeExamples:
    def test_config_example_loads(self, tmp_path):
        text = _readme_block("Command line", "ini")
        cfg, explicit = cli.load_config(_write(tmp_path, text))
        cli.validate(cfg)
        assert cfg.scenario == "mixed-regions"
        assert (cfg.n1, cfg.n2, cfg.nz) == (32, 32, 33)
        assert {"grid", "t_final", "seed"} <= explicit

    def test_library_example_runs(self, capsys):
        exec(_readme_block("Library use", "python"), {})
        reports = capsys.readouterr().out.splitlines()
        assert len(reports) == 5
        assert all(r.startswith("StabilityReport(") and "lambda_ok=True" in r
                   for r in reports)
