"""CLI contract: subcommands, exit codes, config-file pickup."""

import json

import pytest

from hopflab import maps
from hopflab.cli import main


@pytest.fixture()
def hopf_descriptor(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(maps.hopf_map().descriptor))
    return str(path)


@pytest.fixture()
def d2_descriptor(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(maps.prescribed_hopf_map(2).descriptor))
    return str(path)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--s", "0.5"])  # missing --descriptor
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--s", "0.5", "--out", "x", "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_descriptor_file_exits_1(capsys):
    code = main(["energy", "--descriptor", "/no/such/file.json",
                 "--s", "0.5", "--samples", "2000"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_empty_selection(capsys):
    assert main(["verify", "--checks", ""]) == 0
    assert capsys.readouterr().out == ""


def test_verify_single_check_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--checks", "hopf_gradient",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["results"][0]["name"] == "hopf_gradient"


def test_verify_unknown_check_exits_1(capsys):
    assert main(["verify", "--checks", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_energy_emits_estimate_json(hopf_descriptor, capsys):
    code = main(["energy", "--descriptor", hopf_descriptor,
                 "--s", "0.5", "--samples", "5000", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["s"] == 0.5 and doc["p"] == 6.0  # critical default
    assert doc["n_samples"] == 5000 and doc["value"] > 0


def test_hopf_certifies_against_bookkeeping(d2_descriptor, capsys):
    code = main(["hopf", "--descriptor", d2_descriptor, "--step", "0.004"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hopf_invariant"] == 2 == doc["bookkept"]
    assert doc["agree"] is True
    assert abs(doc["residual"]) < 0.05


@pytest.mark.parametrize("argv", [
    ["energy", "--s", "0.5", "--samples", "5000", "--seed", "-1"],
    ["hopf", "--seed", "-1"],
    ["hopf", "--step", "0"],
    ["hopf", "--step", "1e-300"],
])
def test_bad_seed_or_step_exits_1_without_traceback(argv, hopf_descriptor, capsys):
    assert main(argv[:1] + ["--descriptor", hopf_descriptor] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_scaling_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["scaling", "--s", "0.5", "--degrees", "1,2",
                 "--samples", "2000", "--seed", "0", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out
    assert "rows=2" in line and "partial=False" in line
    assert out.exists()
    assert (tmp_path / "run.csv.meta.json").exists()
    assert (tmp_path / "run.csv.loglog.csv").exists()


def test_env_config_supplies_defaults(tmp_path, monkeypatch, capsys,
                                      hopf_descriptor):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"energy": {"samples": 4000, "seed": 9}}))
    monkeypatch.setenv("HOPFLAB_CONFIG", str(cfg))
    code = main(["energy", "--descriptor", hopf_descriptor, "--s", "0.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_samples"] == 4000 and doc["seed"] == 9
    # explicit flags beat the config file
    code = main(["energy", "--descriptor", hopf_descriptor, "--s", "0.5",
                 "--samples", "6000"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 6000
