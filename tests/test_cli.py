"""Command line front end: expression grammar, config contract, exit codes."""

import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nebsde
from nebsde.cli import parse_expression, run


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SOLVE_INI = """\
[scenario]
horizon = 1.0
steps = 40

[problem]
payoff = b + 0.5
driver = -1.0
loss = x
"""

MC_SOLVE_INI = SOLVE_INI.replace(
    "steps = 40", "steps = 40\nmode = montecarlo\nn_paths = 2000\nseed = 3"
)

GEXP_INI = """\
[scenario]
horizon = 1.0
steps = 200

[problem]
payoff = 2.0
expectation = gexp
gexp_driver = -0.5 * (abs(y) + abs(z))
kappa = 0.5
"""

PRICE_INI = """\
[scenario]
horizon = 1.0
steps = 50

[problem]
payoff = 1.0

[market]
rate = 0.05
drift = 0.05
volatility = 0.2

[risk]
kernels = -0.5, 0, 0.5
q_constant = 10.0
"""

VERIFY_INI = """\
[scenario]
horizon = 1.0
steps = 50
"""


# ---------------------------------------------------------------- expressions

def test_expression_arithmetic_and_precedence():
    e = parse_expression("1 + 2 * 3 - 4 / 8", set())
    assert e() == pytest.approx(6.5, abs=0)
    e = parse_expression("(1 + 2) * 3", set())
    assert e() == pytest.approx(9.0, abs=0)
    e = parse_expression("-b * -2", {"b"})
    assert e(b=np.array([1.0, 3.0])) == pytest.approx([2.0, 6.0])


def test_expression_functions_and_names():
    e = parse_expression("max(b, 0) + min(b, 0) - abs(b)", {"b"})
    vals = e(b=np.array([-2.0, 5.0]))
    assert np.allclose(vals, [-4.0, 0.0], atol=1e-15)
    e = parse_expression("exp(t)", {"t"})
    assert e(t=1.0) == pytest.approx(math.e)
    assert e.names == frozenset({"t"})


def test_expression_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expression("b +", {"b"})
    with pytest.raises(ValueError):
        parse_expression("q + 1", {"b"})
    with pytest.raises(ValueError):
        parse_expression("sin(b)", {"b"})
    with pytest.raises(ValueError):
        parse_expression("min(b)", {"b"})
    with pytest.raises(ValueError):
        parse_expression("b b", {"b"})
    with pytest.raises(ValueError):
        parse_expression("b ^ 2", {"b"})
    # Python syntax outside the grammar
    for garbage in ("1_0", "0x1", "1j", "True", "'a'", "b ** 2", "b % 2", "+b",
                    "min(b, b=1)", "min(*b)", "min(b, b,)", "(min)(b, b)", "b # note",
                    "b if b else 1", "b, b", "\uff42"):  # last: fullwidth b
        with pytest.raises(ValueError):
            parse_expression(garbage, {"b"})


def test_expression_number_forms():
    # Integer literals with leading zeros read as decimals, as they always have.
    assert parse_expression("01", set())() == 1.0
    assert parse_expression("007 * b", {"b"})(b=2.0) == 14.0
    assert parse_expression("1e-01", set())() == 0.1
    assert parse_expression(".5", set())() == 0.5
    assert parse_expression("1.", set())() == 1.0
    assert parse_expression("\u0661 + 1", set())() == 2.0  # Arabic-Indic one
    # An INI continuation line arrives with its newline and indent.
    e = parse_expression("max(b,\n    0) +\n    0.5", {"b"})
    assert e(b=np.array([-1.0, 2.0])) == pytest.approx([0.5, 2.5], abs=0)


# ------------------------------------------------------------------ commands

def test_solve_command(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", SOLVE_INI)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    printed = float(capsys.readouterr().out.strip())
    body = (tmp_path / "solution.csv").read_text().splitlines()
    assert body[0].startswith("# digest=")
    assert body[1] == "t,mean_y,flow,constraint"
    assert len(body) == 43  # marker + header + 41 grid rows
    flow_total = float(body[-1].split(",")[2])
    assert abs(flow_total - 0.5) <= 2.0 / 40.0
    assert abs(printed) <= 1e-6  # root mean pinned at the floor
    log = (tmp_path / "run.log").read_text()
    assert "backend=" in log
    assert log.rstrip().splitlines()[-1].startswith("elapsed_seconds=")


def test_solve_reruns_byte_identical(tmp_path):
    for mode, ini in (("tree", SOLVE_INI), ("montecarlo", MC_SOLVE_INI)):
        cfg = _write(tmp_path / f"{mode}.ini", ini)
        out1, out2 = tmp_path / f"{mode}-a", tmp_path / f"{mode}-b"
        assert run(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes(), mode


def test_seed_override_changes_digest(tmp_path):
    cfg = _write(tmp_path / "run.ini", SOLVE_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["solve", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    head1 = (out1 / "solution.csv").read_text().splitlines()[0]
    head2 = (out2 / "solution.csv").read_text().splitlines()[0]
    assert head1 != head2
    assert "seed=5" in head2


def test_solve_mean_floor_column(tmp_path):
    cfg = _write(tmp_path / "run.ini", SOLVE_INI + "\n[output]\nmean_floor_column = yes\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    body = (tmp_path / "solution.csv").read_text().splitlines()
    assert body[1] == "t,mean_y,flow,constraint,mean_floor"
    # interior rows carry a floor value, the terminal row leaves it blank
    assert body[2].count(",") == 4
    assert body[-1].endswith(",")


def test_solve_montecarlo_mode(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", MC_SOLVE_INI)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert abs(float(capsys.readouterr().out.strip())) <= 0.05


def test_gexp_command(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", GEXP_INI)
    assert run(["gexp", "--config", cfg, "--out", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 2.0 * math.exp(-0.5)) <= 1e-3
    body = (tmp_path / "solution.csv").read_text().splitlines()
    assert body[1] == "t,mean_y,flow"
    assert float(body[2].split(",")[1]) == pytest.approx(value, abs=1e-12)


def test_price_command(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", PRICE_INI)
    assert run(["price", "--config", cfg, "--out", str(tmp_path)]) == 0
    price = float(capsys.readouterr().out.strip())
    assert abs(price - math.exp(-0.05)) <= 1e-3
    log = (tmp_path / "run.log").read_text()
    assert "price=" in log
    assert "flow_total=0" in log
    # a slack constraint: one pass per step and no ratio to report
    assert "picard_steps=50 picard_iterations=50 picard_iterations_max=1 picard_ratio_max=\n" in log


def test_verify_command(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", VERIFY_INI)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "checks=10 failed=0" in out
    assert out.count("[PASS]") == 10
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert len(report) == 11
    assert report[0] == "name,property,status,evidence"
    assert (tmp_path / "solution.csv").exists()
    # any finite tilt runs
    cfg = _write(tmp_path / "tilt.ini", VERIFY_INI + "\n[verify]\ntilt = 1e9\n")
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "tilt")]) == 0
    assert "checks=10 failed=0" in capsys.readouterr().out
    # a small margin shift - floor = 0.05 keeps the comparison bundle feasible
    small = VERIFY_INI.replace("steps = 50", "steps = 20")
    small += "\n[verify]\nshift = 0.55\nfloor = 0.5\n"
    cfg = _write(tmp_path / "margin.ini", small)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "margin")]) == 0
    assert "checks=10 failed=0" in capsys.readouterr().out


# ---------------------------------------------------------------- exit codes

def test_config_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert run(["solve", "--config", missing, "--out", str(tmp_path)]) == 1

    bad_key = _write(tmp_path / "k.ini", SOLVE_INI + "\n[scenario2]\nx = 1\n")
    assert run(["solve", "--config", bad_key, "--out", str(tmp_path)]) == 1

    bad_opt = _write(tmp_path / "o.ini", SOLVE_INI.replace("horizon", "horizonn"))
    assert run(["solve", "--config", bad_opt, "--out", str(tmp_path)]) == 1

    bad_expr = _write(tmp_path / "e.ini", SOLVE_INI.replace("b + 0.5", "b +"))
    assert run(["solve", "--config", bad_expr, "--out", str(tmp_path)]) == 1

    no_lip = _write(tmp_path / "l.ini", SOLVE_INI.replace("-1.0", "-0.2 * y"))
    assert run(["solve", "--config", no_lip, "--out", str(tmp_path)]) == 1

    both_q = _write(tmp_path / "q.ini", PRICE_INI + "q_knots = 0:1,1:1\n")
    assert run(["price", "--config", both_q, "--out", str(tmp_path)]) == 1
    capsys.readouterr()  # swallow the error prints

    # the least-squares fit needs more paths than basis_degree
    few = MC_SOLVE_INI.replace("n_paths = 2000", "n_paths = 3\nbasis_degree = 3")
    cfg = _write(tmp_path / "n.ini", few)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error: scenario:" in capsys.readouterr().err

    # a loss that ignores x, and losses whose slope breaks the declared bounds
    for loss in ("t - 2", "x*x - 0.3", "x - 1.0\nloss_lower = 1000\nloss_upper = 1000"):
        cfg = _write(tmp_path / "s.ini", SOLVE_INI.replace("loss = x", f"loss = {loss}"))
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1, loss
        assert "config error: problem.loss:" in capsys.readouterr().err

    # solver tolerances that are not finite, or not positive (feasibility: >= 0)
    for option in ("picard_tol = nan", "picard_tol = 0", "operator_tol = -1",
                   "operator_tol = 0", "operator_tol = inf", "feasibility_tol = nan",
                   "feasibility_tol = -1e-6"):
        cfg = _write(tmp_path / "t.ini", SOLVE_INI + f"\n[solver]\n{option}\n")
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1, option
        assert "config error: solver:" in capsys.readouterr().err

    # keys that are gone: the loss scale and the risk kernels' bound
    for command, text in (("solve", SOLVE_INI + "scale = 1.0\n"),
                          ("price", PRICE_INI + "kappa = 0.5\n")):
        cfg = _write(tmp_path / "u.ini", text)
        assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 1, command
        assert "unknown option" in capsys.readouterr().err

    # declared Lipschitz constants are probed on a (y, z) lattice: kappa = 0.1
    # understates the generator -10 * y, and 1 / y is not finite at y = 0
    for text, key in (
        (SOLVE_INI + "expectation = gexp\ngexp_driver = -10 * y\nkappa = 0.1\n", "kappa"),
        (SOLVE_INI + "expectation = gexp\ngexp_driver = -10 * y\n", "kappa"),
        (SOLVE_INI.replace("-1.0", "-10 * y\ndriver_lipschitz = 0.1"), "driver_lipschitz"),
        (SOLVE_INI.replace("-1.0", "1 / y\ndriver_lipschitz = 1.0"), "driver_lipschitz"),
    ):
        cfg = _write(tmp_path / "lip.ini", text)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1, text
        assert f"config error: problem.{key}:" in capsys.readouterr().err

    # a payoff that is not finite on the terminal support, for every command
    # that reads one
    for command, ini in (("solve", SOLVE_INI), ("gexp", GEXP_INI), ("price", PRICE_INI)):
        for payoff in ("b / 0", "1 / 0", "exp(1000 * b)"):
            text = re.sub(r"payoff = .*", f"payoff = {payoff}", ini)
            cfg = _write(tmp_path / "p.ini", text)
            out = tmp_path / f"p-{command}"
            assert run([command, "--config", cfg, "--out", str(out)]) == 1, (command, payoff)
            assert "config error: problem.payoff:" in capsys.readouterr().err

    # verify options: finite, gamma > 0, and a ramp-flow instance that binds
    # (0 < shift - floor < gamma * horizon)
    verify_ini = VERIFY_INI.replace("steps = 50", "steps = 20")
    for option, key in (("gamma = -1", "gamma"), ("gamma = nan", "gamma"),
                        ("shift = 5", "shift"), ("floor = 0.5", "shift"),
                        ("tilt = inf", "tilt"), ("floor = nan", "floor")):
        cfg = _write(tmp_path / "v.ini", verify_ini + f"\n[verify]\n{option}\n")
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 1, option
        assert f"config error: verify.{key}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("q_constant = 10.0", "q_constant = nan", "risk.q_constant: benchmark values must be finite"),
        ("q_constant = 10.0", "q_knots = 0:0.4,1:inf", "risk.q_knots: benchmark values must be finite"),
        ("kernels = -0.5, 0, 0.5", "kernels =", "risk.kernels: kernel list must be nonempty"),
    ],
)
def test_risk_config_errors_exit_1(tmp_path, capsys, old, new, message):
    cfg = _write(tmp_path / "run.ini", PRICE_INI.replace(old, new))
    assert run(["price", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_infeasible_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "run.ini", SOLVE_INI.replace("b + 0.5", "b - 10.0"))
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "infeasible" in capsys.readouterr().err
    assert "infeasible" in (tmp_path / "run.log").read_text()


def test_large_tilt_price_exits_2(tmp_path, capsys):
    # theta * sqrt(dt) = 40: the tilt must neither overflow nor crash the run
    ini = (PRICE_INI.replace("steps = 50", "steps = 400")
           .replace("payoff = 1.0", "payoff = b")
           .replace("kernels = -0.5, 0, 0.5", "kernels = -800, 800")
           .replace("q_constant = 10.0", "q_constant = 0.0"))
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["price", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "infeasible" in capsys.readouterr().err
    assert "infeasible" in (tmp_path / "run.log").read_text()


def test_non_contractive_exits_3(tmp_path, capsys):
    ini = SOLVE_INI.replace("steps = 40", "steps = 100").replace(
        "driver = -1.0", "driver = -250 * y\ndriver_lipschitz = 250"
    )
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "divergence" in capsys.readouterr().err


BUDGET_INI = """\
[scenario]
horizon = 1.0
steps = 12

[problem]
payoff = b + 1.05
driver = -0.5 * y
driver_lipschitz = 0.5
loss = x - 1.0
"""


def test_iteration_budget_exit_3(tmp_path, capsys):
    ini = BUDGET_INI + "\n[solver]\nmax_picard_iters = 1\n"
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "divergence" in capsys.readouterr().err


def test_run_log_picard_summary(tmp_path):
    cfg = _write(tmp_path / "run.ini", BUDGET_INI)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run.log").read_text().splitlines()
    (line,) = [ln for ln in lines if ln.startswith("picard_steps=")]
    fields = dict(part.split("=") for part in line.split())
    assert list(fields) == ["picard_steps", "picard_iterations", "picard_iterations_max",
                            "picard_ratio_max"]
    # every binding step of this y-driver takes two passes, the last step one
    assert fields["picard_steps"] == "12"
    assert fields["picard_iterations_max"] == "2"
    assert 12 < int(fields["picard_iterations"]) <= 24
    assert 0.0 <= float(fields["picard_ratio_max"]) < 1.0


def test_run_log_shift_paths(tmp_path):
    # A linear loss of one slope under the classical mean takes the closed
    # form on every binding level; the default shape "general" searches.
    for shape, closed in (("linear", True), ("general", False)):
        out = tmp_path / shape
        cfg = _write(tmp_path / f"{shape}.ini", SOLVE_INI + f"loss_shape = {shape}\n")
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "run.log").read_text().splitlines()
        (line,) = [ln for ln in lines if ln.startswith("shift_closed_form=")]
        fields = {k: int(v) for k, v in (part.split("=") for part in line.split())}
        assert list(fields) == ["shift_closed_form", "shift_search", "shift_steps"]
        binding = fields["shift_closed_form"] + fields["shift_search"]
        assert binding > 0
        assert fields["shift_closed_form" if closed else "shift_search"] == binding
        if not closed:
            assert fields["shift_steps"] >= fields["shift_search"]


LARGE_KAPPA_INI = """\
[scenario]
horizon = {horizon}
steps = {steps}

[problem]
payoff = {payoff}
driver = {driver}
loss = {loss}
"""


def test_large_kappa_maxmin_solves(tmp_path):
    # kappa*T = 710 used to overflow the shift bracket of alpha-maxmin and
    # end in a traceback without run.log; kappa*sqrt(dt) = 0.84 keeps the
    # operator monotone on this tree.
    ini = LARGE_KAPPA_INI.format(horizon=14200.0, steps=50, payoff="b + 3", driver=-0.01,
                                 loss="min(x, 0.6 * x)")
    ini += "loss_lower = 0.6\nexpectation = alpha-maxmin\nalpha = 1.0\nkappa = 0.05\n"
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    line = [ln for ln in (tmp_path / "run.log").read_text().splitlines()
            if ln.startswith("shift_closed_form=")]
    fields = dict(part.split("=") for part in line[0].split())
    assert line == [line[0]] and int(fields["shift_search"]) > 0



def test_large_kappa_maxmin_mean_floor_column(tmp_path):
    # The same config with the floor column: alpha-maxmin is cash additive,
    # so the floor's bracket is |v0|/loss_lower with no exp(kappa*T) factor.
    ini = LARGE_KAPPA_INI.format(horizon=14200.0, steps=50, payoff="b + 3", driver=-0.01,
                                 loss="min(x, 0.6 * x)")
    ini += "loss_lower = 0.6\nexpectation = alpha-maxmin\nalpha = 1.0\nkappa = 0.05\n"
    ini += "\n[output]\nmean_floor_column = yes\n"
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert rows[1] == "t,mean_y,flow,constraint,mean_floor"
    floors = [float(row.split(",")[4]) for row in rows[2:-1]]
    assert len(floors) == 50 and all(math.isfinite(f) for f in floors)


def test_operator_not_monotone_on_tree_exits_1(tmp_path, capsys):
    # kappa*sqrt(dt) = 113 on 50 steps: the operator is not monotone there.
    ini = LARGE_KAPPA_INI.format(horizon=1.0, steps=50, payoff="b + 3", driver=-4.0,
                                 loss="min(x, 0.6 * x)")
    ini += "loss_lower = 0.6\nexpectation = alpha-maxmin\nalpha = 0.3\nkappa = 800\n"
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error: problem.kappa:" in capsys.readouterr().err


def test_bracket_failure_exits_4(tmp_path, capsys):
    # The loss keeps its declared slope 1 on the probe lattice |x| <= 10 but
    # is flat above x = 10.5, so before t = 0.475 no shift meets the
    # constraint and the search finds no sign change.
    ini = SOLVE_INI.replace("loss = x", "loss = min(x, 10.5) - 20 * (1 - t)")
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bracket failure" in err and "no sign change" in err
    assert "bracket failure" in (tmp_path / "run.log").read_text()


def test_overflowing_shift_bracket_exits_4(tmp_path, capsys):
    # The y-dependent generator keeps the exp(kappa*T) bracket, which does
    # not fit in a float at kappa*T = 800.
    ini = LARGE_KAPPA_INI.format(horizon=1.0, steps=1000, payoff="-1e-9", driver=0.0, loss="x")
    ini += "expectation = gexp\ngexp_driver = -0.5 * y\nkappa = 800\n"
    cfg = _write(tmp_path / "run.ini", ini)
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bracket failure" in err and "overflows" in err
    assert "bracket failure" in (tmp_path / "run.log").read_text()


def test_gexp_driver_must_vanish_on_every_grid_date(tmp_path, capsys):
    # The generator max(t - 1, 0) is 0 on [0, 1] only; on a horizon of 2 it
    # moves constants (gexp of 1 read 1.45), so both commands refuse it.
    head = "[scenario]\nhorizon = 2\nsteps = 20\n\n[problem]\nexpectation = gexp\n"
    for command, body in (
        ("gexp", "payoff = 1\ngexp_driver = max(t - 1, 0)\n"),
        ("solve", "payoff = b + 1\nloss = x - 1\ngexp_driver = max(t - 1, 0) * 5\n"),
    ):
        cfg = _write(tmp_path / f"{command}.ini", head + body)
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        assert "config error: problem.gexp_driver:" in capsys.readouterr().err
    # one that vanishes up to the horizon is accepted
    cfg = _write(tmp_path / "ok.ini", head + "payoff = 1\ngexp_driver = max(t - 2, 0)\n")
    assert run(["gexp", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert float(capsys.readouterr().out) == 1.0


def test_readme_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"Example `run.ini`.*?```ini\n(.*?)```", readme, re.S)
    cfg = _write(tmp_path / "run.ini", block)
    for command in ("solve", "price", "verify"):
        code = run([command, "--config", cfg, "--out", str(tmp_path / command)])
        assert code == 0, (command, capsys.readouterr().err)
    assert "checks=10 failed=0" in capsys.readouterr().out


# The child loads one module first and fails if that pulls in a test-only
# dependency: the library needs numpy alone.
_IMPORT_FIRST = """\
import importlib, sys
importlib.import_module(sys.argv[1])
loaded = {name.partition(".")[0] for name in sys.modules}
sys.exit(sorted(loaded & {"scipy", "hypothesis", "pytest"}) or 0)
"""


@pytest.mark.parametrize(
    "module", ["nebsde"] + [f"nebsde.{m.name}" for m in pkgutil.iter_modules(nebsde.__path__)]
)
def test_each_module_imports_first(module, child_env):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FIRST, module],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path, child_env):
    cfg = _write(tmp_path / "run.ini", SOLVE_INI)
    proc = subprocess.run(
        [sys.executable, "-m", "nebsde", "solve", "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "solution.csv").exists()
