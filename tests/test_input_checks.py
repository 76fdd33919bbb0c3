"""Every input check of the package, each on one input it refuses: the
exception and its message for the library, the exit code and the message
on stderr for the command line."""

import numpy as np
import pytest

from igw import (
    Caps,
    IGWParams,
    LawSpecError,
    OffspringLaw,
    RegimeError,
    binary_death_bound,
    explosion_lower_bound,
    geometric_absorption_check,
    geometric_death_bound,
    mc_death_prob,
    mc_ratio_convergence,
    one_step_death_prob,
    one_step_dist,
    parse_law_spec,
    simulate_chunks,
    submultiplicativity_check,
    total_progeny_dist,
)
from igw.cli import main
from igw.igw_process import wilson_interval

BINARY = IGWParams(OffspringLaw.binary(0.6), 0.9)
WITH_P0 = IGWParams(parse_law_spec("pmf:0=0.2,2=0.8"), 0.9)

LIBRARY_CASES = [
    # analysis
    (lambda: binary_death_bound(0.0, 0.9), ValueError, "binary parameter 0.0 outside (0, 1]"),
    (lambda: binary_death_bound(0.5, 0.0), ValueError, "thinning parameter 0.0 outside (0, 1]"),
    (lambda: geometric_death_bound(1.5, 1), ValueError, "q1 bound 1.5 outside [0, 1]"),
    (lambda: geometric_death_bound(0.5, -1), ValueError, "x must be nonnegative"),
    (lambda: explosion_lower_bound(0, BINARY), ValueError, "x must be >= 1"),
    (lambda: submultiplicativity_check(BINARY, 0, 1, 3), ValueError, "both start states must be >= 1"),
    (lambda: geometric_absorption_check(WITH_P0, 1, 0), ValueError, "n_max must be >= 1"),
    # exact_dist
    (lambda: Caps(x_cap=0), ValueError, "all caps must be >= 1"),
    (lambda: total_progeny_dist(BINARY.law, -1), ValueError, "x must be nonnegative"),
    (lambda: total_progeny_dist(BINARY.law, 3, s_cap=0), ValueError, "s_cap must be >= 1"),
    (lambda: total_progeny_dist(BINARY.law, 3, s_cap=-1), ValueError, "s_cap must be >= 1"),
    (lambda: one_step_dist(-1, BINARY), ValueError, "x must be nonnegative"),
    (lambda: one_step_death_prob(-1, BINARY), ValueError, "x must be nonnegative"),
    # igw_process
    (lambda: simulate_chunks(2**63, BINARY, 1, 1e9, [np.random.default_rng(0)], [1]), ValueError,
     "the batched engine starts from int64 states"),
    (lambda: mc_death_prob(1, BINARY, 0, 5, 1e9, 0), ValueError, "need at least one replica"),
    (lambda: wilson_interval(0, 0), ValueError, "need at least one trial"),
    (lambda: mc_ratio_convergence(WITH_P0, 1, 10, 0), RegimeError, "ratio experiments need p_0 = 0"),
    # reproduction_laws
    (lambda: OffspringLaw(()), LawSpecError, "offspring pmf must have at least one entry"),
    (lambda: OffspringLaw.explicit({}), LawSpecError, "empty pmf"),
    (lambda: OffspringLaw.explicit({-1: 1.0}), LawSpecError, "offspring count -1 is not a nonnegative integer"),
    (lambda: OffspringLaw.explicit({1.5: 1.0}), LawSpecError, "offspring count 1.5 is not a nonnegative integer"),
    (lambda: OffspringLaw.binary(1.5), LawSpecError, "binary parameter 1.5 outside [0, 1]"),
    (lambda: parse_law_spec("binary0.5"), LawSpecError, "law spec 'binary0.5' has no ':' separator"),
    (lambda: parse_law_spec("pmf:1=0.5,,2=0.5"), LawSpecError, "empty pmf entry in 'pmf:1=0.5,,2=0.5'"),
    (lambda: parse_law_spec("pmf:a=1"), LawSpecError, "offspring count 'a' in entry 'a=1' is not an integer"),
    (lambda: parse_law_spec("pmf:1=0.5,1=0.5"), LawSpecError, "offspring count 1 appears twice"),
]


@pytest.mark.parametrize("call, error, message", LIBRARY_CASES)
def test_library_refuses(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


SWEEP = ["sweep", "death-interval", "--law", "binary:0.6", "--theta", "0.9"]

CLI_CASES = [
    (["exact", "one-step", "--law", "binary:0.6", "--theta", "0.9", "--x", "1", "--x-cap", "0"], 1,
     "caps must be >= 1, got 0"),
    (["mc", "death", "--law", "binary:0.6", "--theta", "0.9", "--threshold", "abc"], 1,
     "--threshold 'abc' is not a number"),
    (["mc", "death", "--law", "binary:0.6", "--theta", "0.9", "--threshold", "0.5"], 1,
     "--threshold must be >= 1"),
    (["bounds", "binary-death", "--law", "pmf:1=0.5,2=0.5", "--theta", "0.9"], 2,
     "the closed form applies to binary laws only"),
    ([*SWEEP, "--x-grid", "1:2:3:4"], 1, "grid range '1:2:3:4' is not 'start:stop[:step]'"),
    ([*SWEEP, "--x-grid", "1:b"], 1, "grid range '1:b' has non-integer parts"),
    ([*SWEEP, "--x-grid", "1:5:0"], 1, "grid step must be >= 1"),
    (["classify", "--law", "binary:0.6", "--theta", "0.9", "--config"], 1, "--config needs a file path"),
]


@pytest.mark.parametrize("args, code, message", CLI_CASES)
def test_cli_refuses(capsys, args, code, message):
    assert main(args) == code
    captured = capsys.readouterr()
    assert not captured.out and message in captured.err


def test_cli_refuses_a_missing_config_file(capsys, tmp_path):
    path = tmp_path / "missing.cfg"
    assert main(["classify", "--config", str(path)]) == 1
    assert f"cannot read config file {str(path)!r}" in capsys.readouterr().err


def test_cli_refuses_a_config_line_without_a_value(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("law=binary:0.6\ntheta 0.9\n", encoding="utf-8")
    assert main(["classify", "--config", str(path)]) == 1
    assert "config line 'theta 0.9' is not key=value" in capsys.readouterr().err

