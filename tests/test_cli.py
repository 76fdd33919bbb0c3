import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import igw
from igw import format_law_spec, parse_law_spec
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
                "exact", "total-progeny", "--law", "binary:0.5", "--x", "2", "--s-cap", "64",
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
                "--theta", "0.9", "--x", "1", "--n", "3", "--x-cap", "64",
            ],
            capsys,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "lo,hi"
        lo, hi = (float(v) for v in lines[1].split(","))
        assert 0 < lo <= hi < 1

    def test_interval_width_attribution(self, capsys):
        # the sweep steps r + 1 = 11 distinct states here; the closure
        # carries the width, the truncation is invisible at float precision
        args = [
            "exact", "death-interval", "--law", "pmf:2=0.5,3=0.5",
            "--theta", "0.45", "--x", "8",
        ]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        meta = meta_dict(out)
        assert meta["swept-states"] == "11"
        truncation, closure = float(meta["width-truncation"]), float(meta["width-closure"])
        lo, hi = (float(v) for v in data_lines(out)[1].split(","))
        assert abs(truncation) <= 1e-15 * lo
        assert closure == pytest.approx(hi - lo, rel=1e-15)
        assert run_cli(args, capsys)[1] == out  # deterministic, byte for byte

        code, out, _ = run_cli(
            [
                "exact", "finite-horizon-death", "--law", "pmf:2=0.5,3=0.5",
                "--theta", "0.45", "--x", "8", "--n", "17",
            ],
            capsys,
        )
        assert code == 0
        assert meta_dict(out)["swept-states"] == "11"


class TestBounds:
    def test_q_star_tol_above_floor_changes_nothing(self, capsys):
        # bisection stops at width min(tol, 1e-14)
        args = ["bounds", "q-star", "--law", "binary:0.5", "--theta", "0.9"]
        for extra in ([], ["--tol", "1e-3"]):
            code, out, _ = run_cli(args + extra, capsys)
            assert code == 0
            assert data_lines(out)[1] == "0.1358024691358004"


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
                "--theta", "0.9", "--x", "1", "--x-cap", "16",
            ],
            capsys,
        )
        assert code == 2

    def test_indeterminate_exit_three(self, capsys):
        # x_cap starved enough that the interval slack swallows the margin
        code, out, _ = run_cli(
            [
                "verify", "submult", "--law", "binary:0.9", "--theta", "0.9",
                "--x", "1", "--y", "3", "--n", "4", "--x-cap", "4",
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

    def test_caps_option_removed_from_bounds(self, capsys):
        # none of the four bounds reads a truncation cap
        for flag, value in [("--caps", "256,256,64"), ("--x-cap", "64"), ("--s-cap", "256")]:
            code, _, err = run_cli(
                [
                    "bounds", "explosion", "--law", "binary:1", "--theta", "0.9", "--x", "10",
                    flag, value,
                ],
                capsys,
            )
            assert code == 1
            assert flag in err

    def test_switch_point_option_removed(self, capsys):
        # the certificate finds its switch point from the law
        code, _, err = run_cli(
            [
                "bounds", "explosion", "--law", "binary:1", "--theta", "0.9", "--x", "10",
                "--switch-point", "20",
            ],
            capsys,
        )
        assert code == 1
        assert "--switch-point" in err


class TestVerify:
    def test_submult_ok(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "submult", "--law", "binary:0.5", "--theta", "0.7",
                "--x", "1", "--y", "1", "--n", "2", "--x-cap", "64",
            ],
            capsys,
        )
        assert code == 0
        assert data_lines(out)[1].endswith(("certified", "pass"))

    def test_absorption_ok(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "absorption", "--law", "pmf:0=0.2,2=0.8", "--theta", "0.9",
                "--x", "1", "--n-max", "6", "--x-cap", "64",
            ],
            capsys,
        )
        assert code == 0
        rows = data_lines(out)[1:]
        assert len(rows) == 6
        assert all(r.endswith("certified") for r in rows)

    def test_absorption_violated_exit_three(self, capsys, monkeypatch):
        # death in [0, 0] puts survival at 1, above the bound at every n
        monkeypatch.setattr(igw.analysis, "finite_horizon_death", lambda *args: igw.IntervalProb(0.0, 0.0))
        code, out, _ = run_cli(
            [
                "verify", "absorption", "--law", "pmf:0=0.2,2=0.8", "--theta", "0.9",
                "--x", "1", "--n-max", "3",
            ],
            capsys,
        )
        assert code == 3
        rows = data_lines(out)[1:]
        assert len(rows) == 3
        assert all(r.endswith("violated") for r in rows)


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
            ["exact", "death-interval", "--law", "binary:1", "--theta", "0.8", "--x", "1"],
            capsys,
        )
        meta = meta_dict(out)
        assert meta["x-cap"] == "512"
        assert meta["horizon"] == "256"
        assert meta["igw_version"]
        # the scalar recursion reads no cap, so none is echoed
        _, out, _ = run_cli(
            ["exact", "one-step-death", "--law", "binary:1", "--theta", "0.8", "--x", "1"],
            capsys,
        )
        assert not {"caps", "x-cap", "s-cap"} & set(meta_dict(out))

    def test_explosion_names_its_harmonic_bound(self, capsys):
        args = ["bounds", "explosion", "--law", "binary:0.6", "--theta", "0.92", "--x", "8"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        meta = meta_dict(out)
        assert meta["harmonic-y"] == "84"
        assert 0.0 < float(meta["harmonic-bound"]) < 1e-12
        assert "quad-tol" not in meta
        assert run_cli(args, capsys)[1] == out


class TestSweep:
    def test_death_interval_sweep_nonincreasing(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "1:12", "--x-cap", "64",
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
                "sweep", "mc-death", "--law", "binary:0.5",
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
                "sweep", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "",
            ],
            capsys,
        )
        assert code == 0
        assert data_lines(out) == ["index,theta,x,lo,hi"]

    def test_oversize_grid_refused(self, capsys):
        code, _, err = run_cli(
            [
                "sweep", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "1:2000000",
            ],
            capsys,
        )
        assert code == 1
        assert "grid" in err


    def test_non_integer_x_grid_refused(self, capsys):
        code, _, err = run_cli(
            [
                "sweep", "death-interval", "--law", "binary:1",
                "--theta", "0.8", "--x-grid", "1.5,2.9",
            ],
            capsys,
        )
        assert code == 1
        assert "1.5" in err

    def test_grid_and_point_flags_exclude_each_other(self, capsys):
        base = ["sweep", "death-interval", "--law", "binary:1"]
        for extra in (
            ["--theta", "0.8", "--theta-grid", "0.7,0.8"],
            ["--theta", "0.8", "--x", "2", "--x-grid", "1:3"],
        ):
            code, _, err = run_cli(base + extra, capsys)
            assert code == 1
            assert "not allowed with" in err
        code, _, err = run_cli(base + ["--x-grid", "1:3"], capsys)
        assert code == 1
        assert "--theta" in err
        # a grid replaces the point flag in the metadata, too
        code, out, _ = run_cli(base + ["--theta-grid", "0.8", "--x-grid", "1:2"], capsys)
        assert code == 0
        meta = meta_dict(out)
        assert meta["x-grid"] == "1:2" and meta["theta-grid"] == "0.8"
        assert "x" not in meta and "theta" not in meta


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

    def test_config_after_nested_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("law=binary:1\ntheta=0.8\nx=2\n")
        args = ["exact", "death-interval", "--config", str(cfg)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        meta = meta_dict(out)
        assert (meta["law"], meta["theta"], meta["x"]) == ("binary:1.0", "0.8", "2")
        code, out, _ = run_cli(args + ["--x", "3"], capsys)
        assert code == 0
        assert meta_dict(out)["x"] == "3"
        # the --config=path spelling is read, not silently ignored
        code, out, _ = run_cli(["exact", "death-interval", f"--config={cfg}", "--x", "3"], capsys)
        assert code == 0
        assert meta_dict(out)["x"] == "3" and meta_dict(out)["law"] == "binary:1.0"

    def test_config_key_the_command_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("law=binary:1\ntheta=0.8\nseed=3\n")
        code, _, err = run_cli(["exact", "death-interval", "--x", "1", "--config", str(cfg)], capsys)
        assert code == 1
        assert "--seed" in err


#: every command path: the flags it is run with here (all it declares,
#: one of each mutually exclusive pair), the alternatives it also declares,
#: and the metadata keys it computes
PATHS = {
    ("classify",): (["--law", "binary:1", "--theta", "0.8"], [], []),
    ("simulate",): (
        ["--law", "binary:1", "--theta", "0.8", "--x0", "2", "--horizon", "5",
         "--threshold", "1e6", "--replicas", "3", "--seed", "1", "--workers", "1"],
        [], ["rng-chunk"],
    ),
    ("exact", "total-progeny"): (["--law", "binary:1", "--x", "2", "--s-cap", "64"], [], ["warning"]),
    ("exact", "one-step"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "2", "--x-cap", "64"], [], ["warning"],
    ),
    ("exact", "one-step-death"): (["--law", "binary:1", "--theta", "0.8", "--x", "2"], [], []),
    ("exact", "finite-horizon-death"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "2", "--n", "3", "--x-cap", "64"],
        [], ["swept-states"],
    ),
    ("exact", "death-interval"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "2", "--x-cap", "64", "--horizon", "20"],
        [], ["swept-states", "width-truncation", "width-closure"],
    ),
    ("bounds", "q-star"): (["--law", "binary:1", "--theta", "0.8", "--tol", "1e-9"], [], []),
    ("bounds", "binary-death"): (["--law", "binary:1", "--theta", "0.8"], [], []),
    ("bounds", "geometric-death"): (["--q1", "0.5", "--x", "3"], [], []),
    ("bounds", "explosion"): (
        ["--law", "binary:1", "--theta", "0.9", "--x", "10"], [],
        ["bound", "valid", "tail_sum", "tail_sup", "harmonic-y", "harmonic-bound"],
    ),
    ("mc", "death"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "2", "--replicas", "20", "--horizon", "10",
         "--threshold", "1e6", "--confidence", "0.9", "--seed", "1", "--workers", "1"],
        [], ["rng-chunk"],
    ),
    ("mc", "ratio"): (
        ["--law", "binary:1", "--theta", "1.0", "--x0", "2", "--replicas", "5", "--horizon", "8",
         "--seed", "1", "--workers", "1"],
        [], ["rng-chunk"],
    ),
    ("verify", "submult"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "1", "--y", "2", "--n", "2", "--x-cap", "64"],
        [], [],
    ),
    ("verify", "absorption"): (
        ["--law", "pmf:2=0.8,0=0.2", "--theta", "0.9", "--x", "1", "--n-max", "3", "--x-cap", "64"],
        [], [],
    ),
    ("sweep", "death-interval"): (
        ["--law", "binary:1", "--theta-grid", "0.8,0.9", "--x-grid", "1:2", "--x-cap", "64",
         "--horizon", "20"],
        ["--theta", "--x"], [],
    ),
    ("sweep", "mc-death"): (
        ["--law", "binary:1", "--theta", "0.8", "--x", "2", "--replicas", "20", "--horizon", "10",
         "--threshold", "1e6", "--confidence", "0.9", "--seed", "1", "--workers", "1"],
        ["--theta-grid", "--x-grid"], ["rng-chunk"],
    ),
}


def declared(path: tuple) -> set:
    args, alternatives, _ = PATHS[path]
    return {a for a in args if a.startswith("--")} | set(alternatives)


@pytest.mark.parametrize("path", sorted(PATHS), ids="-".join)
def test_command_path_declares_what_it_reads(path, capsys):
    args, _, computed = PATHS[path]
    with pytest.raises(SystemExit):
        main([*path, "--help"])
    usage = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z0-9-]*", usage)) == declared(path) | {"--help", "--out", "--config"}

    code, out, err = run_cli([*path, *args], capsys)
    assert code == 0, err
    meta = meta_dict(out)
    keys = {a[2:] for a in args if a.startswith("--")} - {"workers"}  # workers is never echoed
    keys |= {"igw_version", "command", *computed}
    if len(path) == 2:
        keys.add("quantity" if path[0] == "sweep" else "what")
    assert set(meta) == keys
    if "law" in meta:  # canonical, whatever the spelling on the command line
        given = args[args.index("--law") + 1]
        assert meta["law"] == format_law_spec(parse_law_spec(given))
        assert meta["law"] != given

    # a flag that only a sibling path declares is refused, not ignored
    siblings = [p for p in PATHS if p != path and (len(path) == 1 or p[0] == path[0])]
    for flag in set().union(*map(declared, siblings)) - declared(path):
        code, _, err = run_cli([*path, *args, flag, "1"], capsys)
        assert code == 1, (path, flag)
        assert flag in err


def readme_commands() -> list[str]:
    """The ``igw ...`` lines of README's fenced ``sh`` blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    return [ln for block in blocks for ln in block.splitlines() if ln.startswith("igw ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 12
    for line in commands:
        code, out, err = run_cli(shlex.split(line)[1:], capsys)
        assert code == 0, (line, err)
        lines = out.splitlines()
        n_meta = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
        assert n_meta > 0, line
        assert re.fullmatch(r"[a-z_0-9]+(,[a-z_0-9]+)*", lines[n_meta]), (line, lines[n_meta])


def test_import_leaves_scipy_out():
    # every CLI call pays the import; scipy.stats alone took over a second
    src = str(Path(igw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, igw; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"
