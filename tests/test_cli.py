"""CLI surface: every subcommand runs and writes its documented outputs."""

import json

import pytest

from schwave.cli import main


def test_check_asymptotics(capsys):
    assert main(["check-asymptotics", "--mass", "1.0", "--p", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "far" in out and "near" in out
    assert "inf" in out and "sup" in out


def test_phi_writes_table(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    code = main(["phi", "--mass", "1.0", "--smin", "-40", "--smax", "40",
                 "--n", "801", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,phi,dphi,residual,exp_minus_As_phi"
    assert len(lines) == 802
    vals = [float(tok) for tok in lines[400].split(",")]
    assert vals[1] > 0.0  # phi > 0


def test_riccati_prints_table(capsys):
    assert main(["riccati", "--p", "2.0", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "blow-up time T = 22025.465" in out


def test_solve_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--p", "1.5", "--eps", "0.5", "--ds", "0.1",
                 "--tmax", "60", "--snapshots", "5", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "lifespan.json").read_text())
    assert record["status"] == "blew_up"
    assert record["T_num"] > 0
    monitor = (out / "monitor.csv").read_text().strip().split("\n")
    assert monitor[0] == "t,L,J,G,F,Fprime,ratio_riccati,e_tM_G"
    assert len(monitor) > 100
    verification = json.loads((out / "verification.json").read_text())
    assert verification["passed"] is True
    snaps = list(out.glob("field_t*.csv"))
    assert len(snaps) == 1
    assert snaps[0].read_text().splitlines()[0] == "s,v,vt,u"


def test_sweep_and_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    outdir = tmp_path / "out"
    cfg.write_text(
        "mass = 1\np = 1.5\nradius = 1\nepsilons = 0.5,0.35,0.25\n"
        f"ds = 0.1\ntmax = 60\noutdir = {outdir}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (outdir / "sweep.csv").exists()
    fit = json.loads((outdir / "fit.json").read_text())
    assert fit["model"] == "power_law"
    assert fit["target_slope"] == pytest.approx(-1.0)
    assert fit["bound_check"]["passed"] is True
    assert (outdir / "plotdata_loglog.csv").exists()
    for eps in ("0.5", "0.35", "0.25"):
        assert (outdir / f"run_eps{eps}" / "monitor.csv").exists()
        assert (outdir / f"run_eps{eps}" / "verification.json").exists()

    # Refit from the emitted records only.
    assert main(["fit", "--csv", str(outdir / "sweep.csv"),
                 "--outdir", str(tmp_path / "refit")]) == 0
    refit = json.loads((tmp_path / "refit" / "fit.json").read_text())
    assert refit["slope"] == pytest.approx(fit["slope"], rel=1e-12)


def test_solve_exit_zero_on_verified_horizon_run(tmp_path, capsys):
    # A run that merely reaches tmax but verifies cleanly is not a failure.
    out = tmp_path / "run"
    code = main(["solve", "--p", "2.0", "--eps", "0.25", "--ds", "0.1",
                 "--tmax", "20", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "lifespan.json").read_text())
    assert record["status"] == "reached_tmax"


def test_cli_override_beats_config(tmp_path):
    cfg = tmp_path / "cfg"
    outdir = tmp_path / "o1"
    cfg.write_text("mass = 1\np = 1.5\nradius = 1\nepsilons = 0.5,0.35,0.25\n"
                   f"ds = 0.1\ntmax = 60\noutdir = {outdir}\n")
    override_dir = tmp_path / "o2"
    assert main(["sweep", "--config", str(cfg), "--outdir", str(override_dir)]) == 0
    assert (override_dir / "sweep.csv").exists()
    assert not (outdir / "sweep.csv").exists()


def test_sweep_too_few_blowups_keeps_results(tmp_path, capsys):
    # Two blown-up runs cannot be fitted; the measured lifespans must survive.
    outdir = tmp_path / "out"
    code = main(["sweep", "--mass", "1", "--radius", "1", "--p", "1.5",
                 "--epsilons", "0.5,0.35", "--ds", "0.1", "--tmax", "60",
                 "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "have 2" in err[0]
    lines = (outdir / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(line.endswith(",blew_up") for line in lines[1:])
    assert not (outdir / "fit.json").exists()
    for eps in ("0.5", "0.35"):
        assert (outdir / f"run_eps{eps}" / "monitor.csv").exists()
        assert (outdir / f"run_eps{eps}" / "verification.json").exists()


def test_sweep_stopped_by_unbuildable_grid_keeps_finished_runs(tmp_path, capsys):
    # At M = 0.5 the horizon gap leaves the normal doubles below s = -707.4;
    # eps = 0.9 blows up at T ~ 220, so eps = 0.5 forecasts a grid past it.
    outdir = tmp_path / "out"
    code = main(["sweep", "--mass", "0.5", "--radius", "1", "--p", "2",
                 "--epsilons", "0.9,0.5", "--ds", "0.1", "--tmax", "300",
                 "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("schwave: sweep stopped at epsilon=0.5: ")
    assert "t_max=878.4" in err[0] and "s below -707.4" in err[0]
    assert len(err) == 2 and "have 1" in err[1]
    lines = (outdir / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].endswith(",blew_up")
    assert (outdir / "run_eps0.9" / "monitor.csv").exists()
    assert not (outdir / "run_eps0.5").exists()


def test_small_mass_sweep_keeps_the_precursor_off_the_boundary(tmp_path, capsys):
    # At M = 0.2 and ds = 0.1 a 5M margin is only 10 nodes; the leapfrog's
    # numerical precursor reached the boundary and stopped the sweep at eps = 1.
    # (The exit code is 1 either way: the checks fail at eps = 4 and 2.)
    outdir = tmp_path / "out"
    main(["sweep", "--mass", "0.2", "--radius", "1", "--p", "2",
          "--epsilons", "4,2,1", "--ds", "0.1", "--tmax", "60",
          "--outdir", str(outdir)])
    assert capsys.readouterr().err == ""
    lines = (outdir / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 4 and all(ln.endswith(",blew_up") for ln in lines[1:])
    assert (outdir / "fit.json").exists()


def test_sweep_clears_earlier_sweep_outputs(tmp_path):
    # An earlier p = 1.75 sweep in the same outdir: its fit, plot data and
    # run directories must not survive beside a sweep that cannot be fitted.
    outdir = tmp_path / "out"
    (outdir / "run_eps9").mkdir(parents=True)
    (outdir / "run_eps9" / "monitor.csv").write_text("t\n")
    for name in ("fit.json", "plotdata_loglog.csv", "plotdata_exp.csv", "notes.txt"):
        (outdir / name).write_text("old\n")
    code = main(["sweep", "--mass", "1", "--radius", "1", "--p", "1.5",
                 "--epsilons", "0.5,0.35", "--ds", "0.1", "--tmax", "60",
                 "--outdir", str(outdir)])
    assert code == 1
    assert sorted(f.name for f in outdir.iterdir()) == [
        "notes.txt", "run_eps0.35", "run_eps0.5", "sweep.csv"]


def test_fit_too_few_records(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    csv.write_text("epsilon,p,M,R,ds,dt,threshold,T_num,status\n"
                   "0.5,1.5,1,1,0.1,0.09,500000,20.5,blew_up\n"
                   "0.35,1.5,1,1,0.1,0.09,350000,31.5,blew_up\n")
    assert main(["fit", "--csv", str(csv)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "have 2" in err[0]
    assert not (tmp_path / "fit.json").exists()


def test_sweep_files_are_byte_identical_across_repeats(tmp_path, capsys):
    # Reads of uninitialised or wrongly aliased memory in the compiled kernel
    # would show as a changed byte between two identical sweeps.
    outs = [tmp_path / "a", tmp_path / "b"]
    for outdir in outs:
        main(["sweep", "--mass", "0.2", "--radius", "1", "--p", "2",
              "--epsilons", "4,2,1", "--ds", "0.1", "--tmax", "60",
              "--outdir", str(outdir)])
    names = ["sweep.csv", "fit.json"] + [
        f"run_eps{eps}/{name}" for eps in (4, 2, 1)
        for name in ("monitor.csv", "verification.json")]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
