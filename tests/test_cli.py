import hashlib
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from sftlab import patterns as P
from sftlab.cli import main


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "sftlab.cli", *args],
                          capture_output=True, text=True, **kw)


def test_help_exits_zero():
    r = run_cli(["--help"])
    assert r.returncode == 0
    for cmd in ("sample", "emptiness", "entropy", "orbits", "zeta", "cover",
                "experiment"):
        assert cmd in r.stdout
    # --version is no usage error either
    r = run_cli(["--version"])
    assert r.returncode == 0
    assert r.stdout.startswith("sftlab ")


def test_unknown_flag_rejected():
    r = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "0.25",
                 "--jmax", "3", "--frobnicate", "1"])
    assert r.returncode == 2
    assert "frobnicate" in _one_json_error(r.stderr)["message"]


def _one_json_error(stderr):
    """The single stderr line of a usage error, parsed."""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


def test_invalid_value_names_flag():
    r = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "zero",
                 "--jmax", "3"])
    assert r.returncode == 2
    assert "--alpha" in _one_json_error(r.stderr)["message"]


def test_zeta_json_value():
    # the full binary shift has the closed form 1/(1 - 2t), so the truncated
    # inverse at j_max=20 sits within its certified tail of 1 - 2*alpha
    r = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "0.25",
                 "--jmax", "20"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["value"] == pytest.approx(0.5, abs=1e-6)
    assert payload["tail_bound"] < 1e-6
    assert payload["divergent"] is False
    # the shorter truncation reproduces the three-factor product
    r3 = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "0.25",
                  "--jmax", "3"])
    assert json.loads(r3.stdout)["value"] == pytest.approx(0.51099, abs=5e-5)


def test_zeta_domain_error_is_machine_readable():
    r = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "1.5",
                 "--jmax", "3"])
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "DomainError"


def test_sample_then_emptiness_and_entropy(tmp_path):
    omega_path = tmp_path / "omega.bin"
    r = run_cli(["sample", "--d", "1", "--alphabet", "2", "--n", "3",
                 "--alpha", "0.8", "--seed", "42", "--trial", "1",
                 "--omega-out", str(omega_path)])
    assert r.returncode == 0
    assert omega_path.exists()
    r2 = run_cli(["emptiness", "--omega-in", str(omega_path),
                  "--kmax", "8", "--torus-max", "4"])
    assert r2.returncode == 0
    verdict = json.loads(r2.stdout)
    assert verdict["verdict"] in ("empty", "nonempty", "unknown")
    r3 = run_cli(["entropy", "--omega-in", str(omega_path), "--k", "9"])
    assert r3.returncode == 0
    est = json.loads(r3.stdout)
    assert "pattern_count" in est and "h_per_lower" in est


def test_orbits_csv(tmp_path):
    out = tmp_path / "orbits.csv"
    r = run_cli(["orbits", "--d", "1", "--alphabet", "2", "--max-size", "6",
                 "--out", str(out)])
    assert r.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "size,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [2, 1, 2, 3, 6, 9]


def test_cover_command(tmp_path):
    pat = tmp_path / "pat.txt"
    word = np.array([(0, 0, 1)[i % 3] for i in range(24)], dtype=np.uint8)
    P.save_text(pat, P.Pattern.from_array(word, 2))
    r = run_cli(["cover", "--in", str(pat), "--n", "4"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["windows"] == 3
    assert payload["cover_size"] >= 1


def test_experiment_csv_json_and_checks(tmp_path):
    csv = tmp_path / "r.csv"
    js = tmp_path / "r.json"
    args = ["experiment", "emptiness", "--d", "1", "--alphabet", "2",
            "--n", "8", "--alpha", "0.3,0.6", "--trials", "2000",
            "--seed", "11", "--out-csv", str(csv), "--out-json", str(js),
            "--check-zeta-sigma", "4", "--check-max-unknown", "0.05"]
    r = run_cli(args)
    assert r.returncode == 0, r.stderr
    rows = csv.read_text().strip().split("\n")
    assert len(rows) == 3  # header + 2 alphas
    payload = json.loads(js.read_text())
    # config echo round-trips the documented flags
    assert payload["config"]["alphas"] == [0.3, 0.6]
    assert payload["config"]["trials"] == 2000
    assert payload["config"]["seed"] == 11
    assert payload["version"]


def test_experiment_check_failure_exit_code(tmp_path):
    args = ["experiment", "emptiness", "--d", "1", "--alphabet", "2",
            "--n", "2", "--alpha", "0.3", "--trials", "500",
            "--seed", "11", "--out-csv", str(tmp_path / "x.csv"),
            "--check-zeta-sigma", "0.000001"]
    r = run_cli(args)
    assert r.returncode == 1
    assert "CHECK FAIL" in r.stderr


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("jmax = 3\nalpha = 0.25\n")
    # config supplies jmax; flag supplies (and overrides) alpha
    r = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "0.1",
                 "--jmax", "5", "--config", str(cfgfile)])
    payload = json.loads(r.stdout)
    assert payload["alpha"] == 0.1   # flag wins
    assert payload["j_max"] == 5     # flag wins
    r2 = run_cli(["zeta", "--d", "1", "--alphabet", "2", "--alpha", "0.25",
                  "--jmax", "4", "--config", str(cfgfile)])
    assert json.loads(r2.stdout)["j_max"] == 4


def test_threads_env_caps_workers(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["experiment", "emptiness", "--d", "1", "--alphabet", "2", "--n", "2",
            "--alpha", "0.4", "--trials", "1500", "--seed", "3", "--workers", "4"]
    env = dict(os.environ, SFTLAB_THREADS="1")
    r1 = subprocess.run([sys.executable, "-m", "sftlab.cli", *base,
                         "--out-csv", str(a)], env=env, capture_output=True)
    r2 = run_cli([*base, "--out-csv", str(b)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_callable_directly(tmp_path):
    out = tmp_path / "o.csv"
    code = main(["orbits", "--d", "2", "--alphabet", "2", "--max-size", "3",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1:] == ["1,2", "2,3", "3,8"]


def test_entropy_cli_with_sampling(tmp_path):
    omega_path = tmp_path / "omega.bin"
    run_cli(["sample", "--d", "1", "--alphabet", "2", "--n", "4",
             "--alpha", "0.9", "--seed", "4", "--trial", "0",
             "--omega-out", str(omega_path)])
    r = run_cli(["entropy", "--omega-in", str(omega_path), "--k", "16",
                 "--boundary-samples", "64"])
    assert r.returncode == 0
    est = json.loads(r.stdout)
    assert est["periodic_count_exact"] is False
    assert float(est["periodic_count_stderr"]) >= 0.0


def test_cover_cli_banded_route_d2(tmp_path):
    pat = tmp_path / "pat2.txt"
    arr = np.fromfunction(lambda i, j: (i + j) % 2, (81, 81)).astype(np.uint8)
    P.save_text(pat, P.Pattern.from_array(arr, 2))
    # n=27, ceil(27^(1/3)) = 3 -> side 81; j=2 windows puts it in the
    # skeleton band for d=2
    r = run_cli(["cover", "--in", str(pat), "--n", "27", "--tau", str(1 / 3)])
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["windows"] == 2
    assert payload["route"].startswith("skeleton")
    assert len(payload["bound_terms"]) == 3


def test_experiment_d2_n1_runs(tmp_path):
    out = tmp_path / "e.csv"
    r = run_cli(["experiment", "emptiness", "--d", "2", "--alphabet", "2",
                 "--n", "1", "--alpha", "0.5", "--trials", "3", "--seed", "0",
                 "--kmax", "3", "--torus-max", "2", "--zeta-jmax", "2",
                 "--workers", "1", "--out-csv", str(out)])
    assert r.returncode == 0, r.stderr
    assert out.read_text().count("\n") == 2


def test_config_precedence_follows_main_argv(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("alpha = 0.9\njmax = 3\nalphabet = 3\n")
    assert main(["zeta", "--alpha", "0.1", "--jmax", "5", "--config", str(cfgfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 0.1 and payload["j_max"] == 5  # flags win
    assert payload["alphabet"] == 3                            # config over default


def test_config_supplies_a_required_option(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("jmax = 5\n")
    assert main(["zeta", "--alpha", "0.1", "--config", str(cfgfile)]) == 0
    assert json.loads(capsys.readouterr().out)["j_max"] == 5
    # a required option that neither a flag nor the config gives still fails
    assert main(["zeta", "--config", str(cfgfile)]) == 2
    assert "--alpha" in _one_json_error(capsys.readouterr().err)["message"]


def test_cover_takes_n_from_config(tmp_path, capsys):
    pat = tmp_path / "pat.txt"
    word = np.array([(0, 0, 1)[i % 3] for i in range(24)], dtype=np.uint8)
    P.save_text(pat, P.Pattern.from_array(word, 2))
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("n = 3\n")
    assert main(["cover", "--in", str(pat), "--config", str(cfgfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3 and payload["windows"] == 3


def test_config_values_take_the_option_type(tmp_path, capsys):
    # --check-max-unknown defaults to None, so only its type can convert "0.5"
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("check_max_unknown = 0.5\nkmax = 3\n")
    code = main(["experiment", "emptiness", "--n", "2", "--alpha", "0.5",
                 "--trials", "20", "--seed", "1", "--config", str(cfgfile),
                 "--out-csv", str(tmp_path / "e.csv")])
    assert code == 0, capsys.readouterr().err


def test_threads_env_not_an_integer_is_a_json_error(tmp_path):
    env = dict(os.environ, SFTLAB_THREADS="abc")
    r = subprocess.run([sys.executable, "-m", "sftlab.cli", "experiment", "emptiness",
                        "--n", "2", "--alpha", "0.5", "--trials", "4", "--seed", "1",
                        "--out-csv", str(tmp_path / "e.csv")],
                       env=env, capture_output=True, text=True)
    assert r.returncode == 2
    lines = r.stderr.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "DomainError"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_stdout_is_valid_json_for_a_divergent_zeta(capsys):
    assert main(["zeta", "--alpha", "0.6", "--jmax", "3"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["divergent"] is True
    assert payload["log_value"] == "-inf"


def test_truncated_omega_file_is_a_json_error(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"SFTOMEGA\x01\x00")
    r = run_cli(["emptiness", "--omega-in", str(bad)])
    assert r.returncode == 2
    lines = r.stderr.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "DomainError"


def test_entropy_exact_d2_n3_k6(tmp_path, capsys):
    omega_path = tmp_path / "omega.bin"
    assert main(["sample", "--d", "2", "--n", "3", "--alpha", "0.8", "--seed", "5",
                 "--omega-out", str(omega_path)]) == 0
    capsys.readouterr()
    assert main(["entropy", "--omega-in", str(omega_path), "--k", "6"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert est["periodic_count_exact"] is True
    assert float(est["periodic_count"]) <= int(est["pattern_count"])


def test_entropy_pattern_count_is_exact_past_2_53(tmp_path, capsys):
    # the all-allowed d=1, n=2 draw has 2^60 side-60 patterns, printed exactly
    from sftlab.ensemble import AllowedSet
    omega_path = tmp_path / "full.bin"
    AllowedSet(1, 2, 2, np.ones(4, bool)).save(omega_path)
    assert main(["entropy", "--omega-in", str(omega_path), "--k", "60"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert est["pattern_count"] == "1152921504606846976"


def test_epsilons_not_a_number_exits_2(capsys):
    assert main(["experiment", "entropy", "--n", "3", "--alpha", "0.5", "--trials", "6",
                 "--seed", "3", "--k", "6", "--epsilons", "0.1,abc"]) == 2
    assert "--epsilons" in _one_json_error(capsys.readouterr().err)["message"]


def test_epsilons_from_config_take_the_option_type(tmp_path, capsys):
    # the CSV bytes were recorded before --epsilons had a type
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("epsilons = 0.1,0.3\n")
    args = ["experiment", "entropy", "--n", "3", "--alpha", "0.5,0.8", "--trials", "6",
            "--seed", "3", "--k", "6"]
    assert main(args + ["--config", str(cfgfile), "--out-csv", str(tmp_path / "c.csv")]) == 0
    assert main(args + ["--epsilons", "0.1,0.3", "--out-csv", str(tmp_path / "f.csv")]) == 0
    data = (tmp_path / "c.csv").read_bytes()
    assert data == (tmp_path / "f.csv").read_bytes()
    assert b"frac_h_upper_dev_0.3" in data
    assert hashlib.sha256(data).hexdigest() == (
        "2e9340640b335ad8260df7af93bff8f21a11e6e6096a9d037309f63b6881fd22")


@pytest.mark.parametrize("text", ["1 4 2\n0 -1 0 1\n", "1 4 2\n0 300 0 1\n",
                                  "1 4 2\n0 x 0 1\n", "a 4 2\n0 1 0 1\n",
                                  "1 4 300\n0 1 0 1\n", "2 -2 2\n0 1 0 1\n"],
                         ids=["negative", "past-uint8", "not-int", "bad-header",
                              "alphabet-past-256", "negative-side"])
def test_bad_pattern_file_is_a_json_error(tmp_path, text):
    pat = tmp_path / "pat.txt"
    pat.write_text(text)
    r = run_cli(["cover", "--in", str(pat), "--n", "2"])
    assert r.returncode == 2
    lines = r.stderr.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "DomainError"


BAD_SHAPE_ARGS = {
    "sample-d0": ["sample", "--d", "0", "--n", "2", "--alpha", "0.5", "--seed", "1"],
    "sample-alphabet0": ["sample", "--alphabet", "0", "--n", "2", "--alpha", "0.5",
                         "--seed", "1"],
    "sample-n0": ["sample", "--n", "0", "--alpha", "0.5", "--seed", "1"],
    "sample-alphabet-past-256": ["sample", "--alphabet", "257", "--n", "1", "--alpha", "0.5",
                                 "--seed", "1"],
    "emptiness-saved-d0": ["emptiness"],
    "experiment-d4": ["experiment", "emptiness", "--d", "4", "--n", "2", "--alpha", "0.5",
                      "--trials", "3", "--seed", "1"],
    "experiment-n0": ["experiment", "emptiness", "--n", "0", "--alpha", "0.5",
                      "--trials", "3", "--seed", "1"],
    "experiment-alphabet1": ["experiment", "orbits", "--alphabet", "1", "--n", "2",
                             "--alpha", "0.5", "--trials", "3", "--seed", "1"],
    "zeta-alphabet0": ["zeta", "--alphabet", "0", "--alpha", "0.2", "--jmax", "3"],
    "zeta-alphabet0-jmax0": ["zeta", "--alphabet", "0", "--alpha", "0.2", "--jmax", "0"],
    "orbits-alphabet1": ["orbits", "--alphabet", "1", "--max-size", "3"],
    "cover-n0": ["cover", "--n", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPE_ARGS))
def test_bad_shape_parameters_exit_2_with_one_json_line(case, tmp_path, capsys):
    # d outside [1, 3], n < 1 or |A| outside [2, 256] is refused before any
    # work: no output file, one DomainError line, exit 2
    args = list(BAD_SHAPE_ARGS[case])
    out = tmp_path / "out"
    if args[0] == "sample":
        args += ["--omega-out", str(out)]
    elif args[0] == "emptiness":
        saved = tmp_path / "d0.bin"
        saved.write_bytes(b"SFTOMEGA" + struct.pack("<QQQqq", 0, 2, 2, 0, 0) + b"\0")
        args += ["--omega-in", str(saved), "--out", str(out)]
    elif args[0] == "orbits":
        args += ["--out", str(out)]
    elif args[0] == "cover":
        pat = tmp_path / "pat.txt"
        pat.write_text("2 3 2\n0 1 0\n1 0 1\n0 1 0\n")
        args += ["--in", str(pat), "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_json_error(captured.err)["error"] == "DomainError"
    assert not out.exists()
