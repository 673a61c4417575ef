import socket
import threading

import numpy as np
import pytest

from cvqkd import cli
from cvqkd.pipeline import PipelineConfig

SIM_ARGS = ["--loss", "0.54", "--mod-var", "4", "--symbols", "50000",
            "--bics", "6", "--seed", "41"]


def test_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["simulate", *SIM_ARGS, "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "amplified" in captured and "confirmed=True" in captured
    for name in ("report.txt", "ledger.txt", "config.txt", "key.bin",
                 "kept.csv"):
        assert (out / name).exists()
    assert len((out / "key.bin").read_bytes()) > 0
    cfg = PipelineConfig.from_text((out / "config.txt").read_text())
    assert cfg.loss == 0.54 and cfg.seed == 41


def test_simulate_config_file_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(PipelineConfig(
        loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6, seed=41
    ).to_text())
    rc = cli.main(["simulate", "--config", str(cfg_path), "--seed", "42"])
    assert rc == 0
    # every flag of add_pipeline_args overrides the file
    parser = cli.make_parser()
    flags = ["--config", str(cfg_path), "--loss", "0.6", "--symbols", "2e4",
             "--bics", "5", "--seed", "7", "--security-bits", "9",
             "--doubled-exponent", "--holdout", "--bandwidth", "1e6"]
    assert cli.build_config(parser.parse_args(
        ["simulate", *flags, "--mod-var", "3"])) == PipelineConfig(
        loss=0.6, var_mod=3.0, n_symbols=20_000, n_bands=5, seed=7,
        security_bits=9, doubled_exponent=True, holdout=True,
        symbol_rate=1e6)
    assert cli.build_config(parser.parse_args(
        ["simulate", *flags, "--optimize-var"])).var_mod is None


def test_simulate_exits_1_on_empty_key(capsys):
    rc = cli.main(["simulate", "--loss", "0.9", "--mod-var", "4",
                   "--symbols", "200000", "--seed", "1"])
    assert rc == 1
    assert "final key: 0 bits, confirmed=True" in capsys.readouterr().out


def test_simulate_rejects_bad_loss(capsys):
    rc = cli.main(["simulate", "--loss", "1.5", "--symbols", "50000"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_theory_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--losses", "0.0,0.54,0.9", "--mod-var", "1.0",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("loss,theory_bits_per_symbol")
    assert len(lines) == 4
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert rates[0] > rates[1] > rates[2] > 0


def test_sweep_with_simulation(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--losses", "0.54", *SIM_ARGS, "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "sim_amplified_bits_per_second" in header


def test_sweep_rejects_bad_losses():
    assert cli.main(["sweep", "--losses", "a,b"]) == 2


def test_contour_csv(tmp_path):
    out = tmp_path / "contour.csv"
    rc = cli.main(["contour", "--loss", "0.54", "--mod-var", "4",
                   "--grid", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "v_a,v_b,net_information"
    assert len(lines) == 1 + 11 * 11
    grid = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    assert grid[:, 2].max() > 0 and grid[:, 2].min() < 0


def test_dsp_roundtrip_command(tmp_path, capsys):
    out = tmp_path / "dsp.csv"
    rc = cli.main(["dsp", "--symbols", "3000", "--out", str(out)])
    assert rc == 0
    assert "round-trip rms error" in capsys.readouterr().out
    assert out.read_text().startswith("sent,received_clean,received_noisy")


def test_serve_connect_and_audit(tmp_path, capsys):
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    server.close()  # cmd_serve re-binds this port

    rc_serve = {}

    def serve():
        rc_serve["rc"] = cli.main(
            ["serve", "--listen", f"127.0.0.1:{port}",
             "--out", str(tmp_path / "bob")]
        )

    t = threading.Thread(target=serve)
    t.start()
    import time

    rc = 2
    for _ in range(200):  # connection refused (rc 2) until the listener is up
        time.sleep(0.05)
        rc = cli.main(["connect", "--peer", f"127.0.0.1:{port}",
                       *SIM_ARGS, "--out", str(tmp_path / "alice")])
        if rc != 2:
            break
    t.join()
    assert rc == 0 and rc_serve["rc"] == 0
    key_a = (tmp_path / "alice" / "key.bin").read_bytes()
    key_b = (tmp_path / "bob" / "key.bin").read_bytes()
    assert key_a == key_b and len(key_a) > 0
    # the transcript files hold whole bodies, streamed as frames passed
    for side, direction in (("alice", "tx"), ("bob", "rx")):
        lines = (tmp_path / side / "transcript.txt").read_text().splitlines()
        frames = [line.split(" ", 2) for line in lines]
        assert frames[0][:2] == [direction, "HELLO"]
        hello = PipelineConfig.from_text(
            bytes.fromhex(frames[0][2])[16:].decode())
        assert hello == PipelineConfig.from_text(
            (tmp_path / side / "config.txt").read_text())
        assert (hello.loss, hello.n_symbols, hello.seed) == (0.54, 50_000, 41)
        assert [len(body) // 2 for _, name, body in frames
                if name == "SYMBOLS"] == [32 + 16 * 50_000]
        assert not list((tmp_path / side).glob(".tmp-*"))

    rc = cli.main(["audit",
                   "--transcript", str(tmp_path / "alice" / "transcript.txt"),
                   "--ledger", str(tmp_path / "alice" / "ledger.txt")])
    assert rc == 0
    assert "transcript matches ledger" in capsys.readouterr().out


def test_parse_endpoint():
    assert cli.parse_endpoint("localhost:99") == ("localhost", 99)
    assert cli.parse_endpoint(":99") == ("127.0.0.1", 99)
    with pytest.raises(Exception):
        cli.parse_endpoint("nohost")
