"""Command-line harness.

Subcommands: simulate (full in-process run), sweep (key rate versus
loss), contour (net-information grid), serve / connect (two-process
session over TCP), dsp (modem round-trip experiment), audit (transcript
leakage tally).  CSV schemas are described in FORMATS.md and in each
subcommand's --help text.  Artifacts are written atomically (temp file
plus rename); exit status is 0 only when a final key was produced and
confirmed.
"""

import argparse
import contextlib
import dataclasses
import os
import socket
import sys
import tempfile

import numpy as np

from . import bands, channel, pipeline, security, session
from .errors import CvqkdError, InvalidConfigError
from .rng import stream

# the longest a session side waits on its peer's next bytes
SOCKET_TIMEOUT_S = 120.0


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """A temp file in the same directory that replaces ``path`` when the
    block ends without an error."""
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, data):
    """Write text or bytes via a temp file in the same directory."""
    with atomic_open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def add_pipeline_args(parser):
    parser.add_argument("--config", help="key=value file; flags override it")
    parser.add_argument("--loss", type=float, help="channel loss in [0, 1)")
    parser.add_argument("--symbols", type=float, dest="n_symbols",
                        help="number of symbols (>= 1e4)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--mod-var", type=float, dest="var_mod",
                       help="modulation variance in shot-noise units")
    group.add_argument("--optimize-var", action="store_true",
                       help="optimize the modulation variance for the loss")
    parser.add_argument("--bics", type=int, dest="n_bands",
                        help="number of banded information channels")
    parser.add_argument("--seed", type=int, help="master session seed")
    parser.add_argument("--security-bits", type=int,
                        help="privacy-amplification safety margin s")
    parser.add_argument("--doubled-exponent", action="store_true",
                        default=None, help="alternate overlap exponent")
    parser.add_argument("--holdout", action="store_true", default=None,
                        help="band boundaries from a disjoint subset")
    parser.add_argument("--bandwidth", type=float, dest="symbol_rate",
                        help="symbol rate in Hz for the bits/s basis "
                             "(default 17e6)")


def build_config(args):
    if args.config:
        with open(args.config) as fh:
            config = pipeline.PipelineConfig.from_text(fh.read())
    else:
        config = pipeline.PipelineConfig()
    for field in dataclasses.fields(config):
        if (val := getattr(args, field.name, None)) is not None:
            setattr(config, field.name, val)
    if getattr(args, "optimize_var", False):
        config.var_mod = None
    config.n_symbols = int(config.n_symbols)
    config.__post_init__()
    return config


def write_run_artifacts(out_dir, config, result):
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "report.txt"),
                 result.report.render() + "\n")
    atomic_write(os.path.join(out_dir, "ledger.txt"),
                 pipeline.ledger_text(result.records))
    atomic_write(os.path.join(out_dir, "config.txt"), config.to_text())
    atomic_write(os.path.join(out_dir, "key.bin"), result.key_bytes)
    tmp = os.path.join(out_dir, ".tmp-kept.csv")
    bands.write_kept_csv(tmp, result.sifted_kept,
                         result.postselection.partition.band_idx)
    os.replace(tmp, os.path.join(out_dir, "kept.csv"))


def cmd_simulate(args):
    config = build_config(args)
    result = pipeline.run_pipeline(config)
    print(result.report.render())
    print(f"final key: {len(result.alice_key)} bits, "
          f"confirmed={result.confirmed}")
    if args.out:
        write_run_artifacts(args.out, config, result)
    return 0 if result.confirmed and len(result.alice_key) > 0 else 1


def parse_losses(text):
    try:
        losses = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfigError(f"bad loss list {text!r}") from exc
    if not losses:
        raise InvalidConfigError("empty loss list")
    return losses


def cmd_sweep(args):
    losses = parse_losses(args.losses)
    config = build_config(args)
    simulate = args.n_symbols is not None or args.config is not None
    rows = []
    status = 0
    for loss in losses:
        theory = security.theoretical_key_rate_curve(
            [loss], config.var_mod, config.symbol_rate,
            config.doubled_exponent,
        )[0]
        row = {"loss": loss, "theory_bits_per_symbol": theory[1],
               "theory_bits_per_second": theory[2]}
        if simulate:
            result = pipeline.run_pipeline(
                dataclasses.replace(config, loss=loss))
            for r in result.report.rows:
                row[f"sim_{r.stage}_bits_per_second"] = r.bits_per_second
            if not result.confirmed:
                status = 1
        rows.append(row)
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % row[h] for h in header))
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    print(text, end="")
    theory_rates = [row["theory_bits_per_second"] for row in rows]
    pairs = sorted(zip(losses, theory_rates))
    if any(b > a for (_, a), (_, b) in zip(pairs, pairs[1:])):
        print("warning: theoretical rate not monotone decreasing in loss",
              file=sys.stderr)
    return status


def cmd_contour(args):
    config = build_config(args)
    params = config.channel_params()
    sigma = np.sqrt(params.var_mod("x"))
    va_max = args.va_max if args.va_max else 3.0 * sigma
    vb_max = args.vb_max if args.vb_max else 3.0 * np.sqrt(
        2.0 * params.eta("x") * params.var_mod("x") + params.vacuum_var
    )
    va = np.linspace(0.0 if args.perspective == "bob" else -va_max,
                     va_max, args.grid)
    vb = np.linspace(-vb_max, vb_max, args.grid)
    grid = security.contour_grid(params, va, vb, args.perspective,
                                 doubled_exponent=config.doubled_exponent)
    lines = ["v_a,v_b,net_information"]
    for i, a in enumerate(va):
        for j, b in enumerate(vb):
            lines.append("%.17g,%.17g,%.17g" % (a, b, grid[i, j]))
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        print(text, end="")
    return 0


def parse_endpoint(text):
    host, sep, port = text.rpartition(":")
    if not sep:
        raise InvalidConfigError(f"endpoint {text!r} is not host:port")
    return host or "127.0.0.1", int(port)


def _transcript_sink(args):
    """With ``--out``, the session's transcript file, written as frames
    pass; else a context of None."""
    if not args.out:
        return contextlib.nullcontext()
    os.makedirs(args.out, exist_ok=True)
    return atomic_open(os.path.join(args.out, "transcript.txt"))


def _session_artifacts(args, result):
    if args.out:
        atomic_write(os.path.join(args.out, "key.bin"), result.key_bytes)
        atomic_write(os.path.join(args.out, "ledger.txt"),
                     pipeline.ledger_text(result.records))
        atomic_write(os.path.join(args.out, "config.txt"),
                     result.config.to_text())
        if result.report is not None:
            atomic_write(os.path.join(args.out, "report.txt"),
                         result.report.render() + "\n")


def cmd_serve(args):
    host, port = parse_endpoint(args.listen)
    server = socket.create_server((host, port))
    print(f"listening on {host}:{server.getsockname()[1]}", flush=True)
    conn, peer = server.accept()
    server.close()
    conn.settimeout(SOCKET_TIMEOUT_S)
    print(f"session from {peer[0]}:{peer[1]}")
    with conn, conn.makefile("rb") as rd, conn.makefile("wb") as wr, \
            _transcript_sink(args) as sink:
        result = session.run_bob(rd, wr, sink)
    if result.report is not None:
        print(result.report.render())
    print(f"final key: {len(result.key_bits)} bits, "
          f"confirmed={result.confirmed}")
    _session_artifacts(args, result)
    return 0 if result.confirmed and len(result.key_bits) > 0 else 1


def cmd_connect(args):
    config = build_config(args)
    host, port = parse_endpoint(args.peer)
    with socket.create_connection((host, port),
                                  timeout=SOCKET_TIMEOUT_S) as conn, \
            conn.makefile("rb") as rd, conn.makefile("wb") as wr, \
            _transcript_sink(args) as sink:
        result = session.run_alice(rd, wr, config, sink)
    print(f"final key: {len(result.key_bits)} bits, "
          f"confirmed={result.confirmed}")
    _session_artifacts(args, result)
    return 0 if result.confirmed and len(result.key_bits) > 0 else 1


def cmd_dsp(args):
    from . import dsp

    config = dsp.DspConfig()
    n = int(args.symbols)
    rng = stream(args.seed, "dsp-experiment")
    symbols = rng.normal(0.0, np.sqrt(args.mod_var), n)
    clean = dsp.dsp_roundtrip(symbols, config)
    # relative to the signal scale: the linear chain's error is proportional
    # to the symbol amplitude
    rms = float(np.sqrt(np.mean((clean - symbols) ** 2))
                / np.sqrt(args.mod_var))
    noisy = dsp.dsp_roundtrip(symbols, config, noise_seed=args.seed,
                              noise_var=channel.VACUUM_VAR)
    resid_var = float(np.var(noisy - symbols))
    print(f"symbols: {n}")
    print(f"clean round-trip rms error (per unit amplitude): {rms:.3e}")
    print(f"noisy round-trip residual variance: {resid_var:.4f} "
          f"(target {channel.VACUUM_VAR})")
    if args.out:
        lines = ["sent,received_clean,received_noisy"]
        for s, c, z in zip(symbols, clean, noisy):
            lines.append("%.17g,%.17g,%.17g" % (s, c, z))
        atomic_write(args.out, "\n".join(lines) + "\n")
    return 0 if rms < 1e-3 else 1


def cmd_audit(args):
    transcript = session.load_transcript(args.transcript)
    tally = session.audit_transcript(transcript)
    for key, val in tally.items():
        print(f"{key}={val}")
    if args.ledger:
        totals = {}
        with open(args.ledger) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    key, val = line.split("=", 1)
                    totals[key] = val
        ledgered = int(totals.get("total.leaked_bits", -1))
        if ledgered != tally["total_bits"]:
            print(f"MISMATCH: transcript {tally['total_bits']} bits, "
                  f"ledger {ledgered} bits")
            return 1
        print("transcript matches ledger")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Continuous-variable QKD simulator and key "
                    "post-processing harness.  CSV schemas: FORMATS.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="full in-process protocol run")
    add_pipeline_args(p)
    p.add_argument("--out", help="artifact directory (report.txt, "
                                 "ledger.txt, kept.csv, key.bin)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="key rate versus channel loss")
    add_pipeline_args(p)
    p.add_argument("--losses", required=True,
                   help="comma-separated loss values in [0, 1)")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("contour", help="net-information grid CSV "
                                       "(v_a, v_b, value rows)")
    add_pipeline_args(p)
    p.add_argument("--grid", type=int, default=101,
                   help="points per axis")
    p.add_argument("--perspective", choices=("global", "bob"),
                   default="global")
    p.add_argument("--va-max", type=float)
    p.add_argument("--vb-max", type=float)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("serve", help="receiver side of a two-process "
                                     "session (hosts the channel "
                                     "simulator)")
    p.add_argument("--listen", required=True, help="host:port")
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("connect", help="sender side of a two-process "
                                       "session")
    add_pipeline_args(p)
    p.add_argument("--peer", required=True, help="host:port")
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("dsp", help="modem round-trip experiment")
    p.add_argument("--symbols", type=float, default=1e4)
    p.add_argument("--mod-var", type=float, dest="mod_var", default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_dsp)

    p = sub.add_parser("audit", help="tally disclosed bits in a session "
                                     "transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--ledger", help="ledger.txt to compare against")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CvqkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
