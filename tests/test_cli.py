"""CLI contract: subcommands, exit codes, flag defaults, the README's examples."""

import json
import re
import shlex
from pathlib import Path

import pytest

import hopflab
from hopflab import maps
from hopflab.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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
        # the CSV is the one artifact format: there is no --format
        main(["scaling", "--s", "0.5", "--out", "x", "--format", "csv"])
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


@pytest.mark.parametrize("s", ["0", "-0.5", "1"])
def test_energy_s_outside_the_unit_interval_exits_1_with_one_line(s, hopf_descriptor,
                                                                   capsys):
    # s = 0 used to end in a ZeroDivisionError traceback from the default p = 3/s
    assert main(["energy", "--descriptor", hopf_descriptor, "--s", s]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: s must lie in (0,1)") and "Traceback" not in err
    assert err.count("\n") == 1  # one line


@pytest.mark.parametrize("degrees, token", [("kmax:x", "'x'"), ("1,a", "'a'")])
def test_bad_degrees_exit_1_without_traceback(degrees, token, tmp_path, capsys):
    code = main(["scaling", "--s", "0.5", "--degrees", degrees,
                 "--out", str(tmp_path / "run.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and token in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, message", [
    ('{"variant": "multi_bubble", "params": {}}', "'multi_bubble' has no key 'k'"),
    ("[1, 2]", "JSON object"),
    ('{"variant": "hopf", "par', "not JSON"),
    ('{"variant": "multi_bubble", "params": [1]}',
     "params of variant 'multi_bubble' must be a JSON object, got list"),
    ('{"variant": "multi_bubble", "params": {"k": "3", "basepoint": [1, 0, 0], '
     '"safety": 0.9}}', "'k' of variant 'multi_bubble' must be an integer, got '3'"),
    ('{"variant": "precompose_rotation", "params": {"matrix": [[NaN, 0, 0, 0], '
     '[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}, "children": [{"variant": "hopf", '
     '"params": {}, "children": []}]}', "rotation matrix has a non-finite entry"),
], ids=["missing_key", "not_an_object", "truncated", "params_a_list", "k_a_string",
        "nan_matrix"])
def test_malformed_descriptor_exits_1_without_traceback(text, message, tmp_path,
                                                        capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["energy", "--descriptor", str(path), "--s", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert err.count("\n") == 1  # one line


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


def test_hopflab_config_has_no_effect(tmp_path, monkeypatch, capsys,
                                      hopf_descriptor):
    # no file moves a verify bound or a default unrecorded: the flags and
    # their defaults are the only settings
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"overrides": {"gradient_tol": 1e-20}},
                               "energy": {"samples": 4000}}))
    monkeypatch.setenv("HOPFLAB_CONFIG", str(cfg))
    assert main(["verify", "--checks", "hopf_gradient"]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    assert main(["energy", "--descriptor", hopf_descriptor, "--s", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_samples"] == 200_000 and doc["seed"] == 0


def test_readme_examples_match_the_package():
    # a README that shows a deleted name or flag fails here
    text = README.read_text()
    names = re.search(r"from hopflab import \((.*?)\)", text, re.S).group(1)
    names = [n.strip() for n in names.split(",") if n.strip()]
    assert len(names) >= 5
    assert [n for n in names if not hasattr(hopflab, n)] == []
    cli = re.search(r"## Quickstart \(CLI\).*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [ln for ln in cli.replace("\\\n", " ").splitlines()
             if ln.startswith("hopflab ")]
    assert len(lines) >= 4
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # a usage error exits 2
