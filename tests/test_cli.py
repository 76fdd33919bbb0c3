import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igw
from igw import parse_law_spec
from igw.cli import main


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if not ln.startswith("#")]


def meta_dict(out: str) -> dict:
    meta = {}
    for ln in out.splitlines():
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            meta[key] = value
    return meta


class TestClassify:
    def test_supercritical_no_thinning(self, capsys):
        code, out, _ = run_cli(["classify", "--law", "binary:0.5", "--theta", "1.0"], capsys)
        assert code == 0
        assert data_lines(out) == ["mean_regime,as_regime", "MeanExplodes,AlmostSureExplosion"]

    def test_coexistence_case(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--law", "pmf:0=0.3,5=0.7", "--theta", "0.9"], capsys
        )
        assert code == 0
        assert data_lines(out)[1] == "MeanExplodes,AlmostSureDeath"


class TestExact:
    def test_one_step_death_value(self, capsys):
        code, out, _ = run_cli(
            ["exact", "one-step-death", "--law", "binary:1", "--theta", "0.8", "--x", "1"],
            capsys,
        )
        assert code == 0
        value = float(data_lines(out)[1])
        assert value == pytest.approx(0.04, abs=1e-12)

    def test_total_progeny_has_overflow_row(self, capsys):
        code, out, _ = run_cli(
            [
                "exact", "total-progeny", "--law", "binary:0.5", "--theta", "1.0",
                "--x", "2", "--caps", "64,64,16",
            ],
            capsys,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "value,prob"
        assert lines[-1].startswith("overflow,")
        probs = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:-1]}
        assert probs[2] == pytest.approx(0.25, abs=1e-12)

    def test_interval_output(self, capsys):
        code, out, _ = run_cli(
            [
                "exact", "finite-horizon-death", "--law", "pmf:0=0.2,2=0.8",
                "--theta", "0.9", "--x", "1", "--n", "3", "--caps", "256,256,64",
            ],
            capsys,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "lo,hi"
        lo, hi = (float(v) for v in lines[1].split(","))
        assert 0 < lo <= hi < 1


class TestErrorsAndExitCodes:
    def test_malformed_law_names_token(self, capsys):
        code, _, err = run_cli(["classify", "--law", "binary:zzz", "--theta", "0.5"], capsys)
        assert code == 1
        assert "zzz" in err

    def test_bad_theta_rejected(self, capsys):
        code, _, err = run_cli(["classify", "--law", "binary:0.5", "--theta", "1.5"], capsys)
        assert code == 1
        assert "theta" in err.lower() or "thinning" in err.lower()

    def test_missing_flag_named(self, capsys):
        code, _, err = run_cli(["classify", "--law", "binary:0.5"], capsys)
        assert code == 1
        assert "--theta" in err

    def test_regime_rejection_exit_two(self, capsys):
        code, _, err = run_cli(
            [
                "exact", "death-interval", "--law", "pmf:0=0.2,2=0.8",
                "--theta", "0.9", "--x", "1", "--caps", "64,64,16",
            ],
            capsys,
        )
        assert code == 2

    def test_indeterminate_exit_three(self, capsys):
        # caps starved enough that the interval slack swallows the margin
        code, out, _ = run_cli(
            [
                "verify", "submult", "--law", "binary:0.9", "--theta", "0.52",
                "--x", "4", "--y", "4", "--n", "4", "--caps", "8,8,8",
            ],
            capsys,
        )
        assert code == 3
        assert any("indeterminate" in ln for ln in data_lines(out))

    def test_exact_cap_option_removed(self, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--law", "binary:0.5", "--theta", "0.9", "--x0", "2",
                "--exact-cap", "0",
            ],
            capsys,
        )
        assert code == 1
        assert "--exact-cap" in err

    def test_quad_tol_option_removed(self, capsys):
        code, _, err = run_cli(
            [
                "bounds", "explosion", "--law", "binary:1", "--theta", "0.9", "--x", "10",
                "--quad-tol", "1e-10",
            ],
            capsys,
        )
        assert code == 1
        assert "--quad-tol" in err


class TestVerify:
    def test_submult_ok(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "submult", "--law", "binary:0.5", "--theta", "0.7",
                "--x", "1", "--y", "1", "--n", "2", "--caps", "256,256,64",
            ],
            capsys,
        )
        assert code == 0
        assert data_lines(out)[1].endswith(("certified", "pass"))

    def test_absorption_ok(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "absorption", "--law", "pmf:0=0.2,2=0.8", "--theta", "0.9",
                "--x", "1", "--n-max", "6", "--caps", "512,512,64",
            ],
            capsys,
        )
        assert code == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 6
        assert all(r.endswith("certified") for r in rows)


class TestDeterminism:
    def test_mc_byte_identical_across_workers(self, capsys):
        args = [
            "mc", "death", "--law", "binary:1", "--theta", "0.8", "--x", "1",
            "--replicas", "3000", "--seed", "7", "--horizon", "50",
        ]
        code1, out1, _ = run_cli(args + ["--workers", "1"], capsys)
        code2, out2, _ = run_cli(args + ["--workers", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert meta_dict(out1)["rng-chunk"] == "1024"

    def test_mc_ratio_byte_identical_across_workers(self, capsys):
        # 1500 replicas: a full chunk and a partial one
        args = [
            "mc", "ratio", "--law", "binary:0.5", "--theta", "1.0", "--x0", "6",
            "--replicas", "1500", "--seed", "5", "--horizon", "40",
        ]
        code1, out1, _ = run_cli(args + ["--workers", "1"], capsys)
        code2, out2, _ = run_cli(args + ["--workers", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert meta_dict(out1)["rng-chunk"] == "1024"
        assert int(data_lines(out1)[1].split(",")[1]) == 1500

    def test_simulate_repeatable(self, capsys):
        args = [
            "simulate", "--law", "binary:0.5", "--theta", "0.9", "--x0", "2",
            "--horizon", "12", "--replicas", "5", "--seed", "3",
        ]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_mc_ratio_table(self, capsys):
        code, out, _ = run_cli(
            [
                "mc", "ratio", "--law", "pmf:2=1.0", "--theta", "1.0", "--x0", "1",
                "--replicas", "5", "--seed", "1", "--horizon", "30",
            ],
            capsys,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "step,count,median_y,err_q10,err_q50,err_q90"
        step2 = next(ln for ln in lines[1:] if ln.startswith("2,"))
        assert float(step2.split(",")[2]) == pytest.approx(math.log(126) / 6, rel=1e-12)

    def test_simulate_schema(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--law", "pmf:2=1.0", "--theta", "1.0", "--x0", "1",
                "--horizon", "10", "--replicas", "1", "--seed", "0",
            ],
            capsys,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "replica,step,state_mode,state_value,log_state,y_ratio,termination"
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "exact", "1"]
        assert lines[1].endswith("Exploded")
        assert meta_dict(out)["rng-chunk"] == "1024"


class TestMetadata:
    def test_law_round_trips_from_metadata(self, capsys):
        _, out, _ = run_cli(["classify", "--law", "pmf:0=0.125,2=0.875", "--theta", "0.5"], capsys)
        meta = meta_dict(out)
        law = parse_law_spec(meta["law"])
        assert law.probs[0] == 0.125 and law.probs[2] == 0.875

    def test_defaults_echoed(self, capsys):
        _, out, _ = run_cli(
            ["exact", "one-step-death", "--law", "binary:1", "--theta", "0.8", "--x", "1"],
            capsys,
        )
        meta = meta_dict(out)
        assert meta["caps"] == "4096,4096,512"
        assert meta["igw_version"]

    def test_explosion_names_its_harmonic_bound(self, capsys):
        args = ["bounds", "explosion", "--law", "binary:0.6", "--theta", "0.92", "--x", "8",
                "--caps", "256,256,64"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        meta = meta_dict(out)
        assert meta["harmonic-y"] == "65"
        assert 0.0 < float(meta["harmonic-bound"]) < 1e-12
        assert "quad-tol" not in meta
        assert run_cli(args, capsys)[1] == out


class TestSweep:
    def test_death_interval_sweep_nonincreasing(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--quantity", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "1:12", "--caps", "256,256,64",
                "--horizon", "64",
            ],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in data_lines(out)[1:]]
        his = [float(r[4]) for r in rows]
        assert len(his) == 12
        assert all(b <= a + 1e-12 for a, b in zip(his, his[1:]))
        q_star = 0.0625
        for x, hi in enumerate(his, start=1):
            assert hi <= q_star**x + 1e-9

    def test_mc_death_sweep_theta_one_is_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--quantity", "mc-death", "--law", "binary:0.5",
                "--theta-grid", "1.0", "--x-grid", "1:3", "--replicas", "300",
                "--seed", "5", "--horizon", "30", "--threshold", "1e6",
            ],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in data_lines(out)[1:]]
        assert len(rows) == 3
        assert all(float(r[3]) == 0.0 for r in rows)
        assert meta_dict(out)["rng-chunk"] == "1024"

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--quantity", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "",
            ],
            capsys,
        )
        assert code == 0
        assert data_lines(out) == ["index,theta,x,lo,hi"]

    def test_oversize_grid_refused(self, capsys):
        code, _, err = run_cli(
            [
                "sweep", "--quantity", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "1:2000000",
            ],
            capsys,
        )
        assert code == 1
        assert "grid" in err


class TestConfigFile:
    def test_config_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("law=binary:0.5\ntheta=1.0\n")
        code, out, _ = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert data_lines(out)[1] == "MeanExplodes,AlmostSureExplosion"
        # explicit flag beats the config value
        code, out, _ = run_cli(["classify", "--config", str(cfg), "--theta", "0.9"], capsys)
        assert code == 0
        assert data_lines(out)[1] == "MeanExplodes,MixedDeathOrExplosion"


def test_import_leaves_scipy_out():
    # every CLI call pays the import; scipy.stats alone took over a second
    src = str(Path(igw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, igw; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"
