"""Command-line interface.

Subcommand groups: pfs (protected containers), manifest (signer and
measurement), pcs (mock certification service), keyserver (secret
provisioning), enclave (start/run workloads), demo (full workflow).
Exit codes: 0 success, then `failure.exit_code` of the first error:
1 attestation failure, 2 integrity failure, 3 anything else. `pfs verify`
exits 1 when a node fails to authenticate.

Each command imports its own subsystem when it runs, so a server's cold
start loads neither the demo nor the subsystems it does not serve.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys
import time

from . import codec, wire
from .failure import exit_code


class CliError(Exception):
    """An argument the CLI itself rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError, so it exits 3 with one error line."""

    def error(self, message):
        raise CliError(message)


# hex arguments follow the record rule: the lower-case hex of the value
KEY = codec.hexbytes(32)  # a container master key or an Ed25519 private key


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise CliError(f"expected host:port, got {text!r}")
    try:
        number = codec.decimal(port)
    except ValueError as exc:
        raise CliError(f"port of {text!r}: {exc}")
    if not 0 <= number <= 65535:
        raise CliError(f"port of {text!r}: {number} is outside 0..65535")
    return host, number


# -- pfs ------------------------------------------------------------------

def cmd_pfs_encrypt(args) -> int:
    from . import pfs
    key = KEY.decode(args.key_hex)
    with open(args.input, "rb") as fh:
        data = fh.read()
    with pfs.ProtectedFile.create(args.output, args.label, key) as handle:
        handle.write(0, data)
    print(f"encrypted {len(data)} bytes -> {args.output}")
    return 0


def cmd_pfs_decrypt(args) -> int:
    from . import pfs
    key = KEY.decode(args.key_hex)
    with pfs.ProtectedFile.open(args.input, args.label, key) as handle:
        data = handle.read(0, handle.size)
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"decrypted {len(data)} bytes -> {args.output}")
    return 0


def cmd_pfs_verify(args) -> int:
    from . import pfs
    key = KEY.decode(args.key_hex)
    report = pfs.verify_file(args.file, key)
    if report.ok:
        print("ok: every node authenticates")
        return 0
    print(f"FAILED at {report.first_bad_node}")
    return 1


def cmd_pfs_info(args) -> int:
    from . import pfs
    key = codec.optional(KEY).decode(args.key_hex)
    meta = pfs.info(args.file, key)
    for field in ("uuid", "file_size", "data_blocks", "mht_nodes",
                  "total_nodes", "disk_size", "label"):
        if field in meta:
            print(f"{field}: {meta[field]}")
    return 0


# -- manifest ---------------------------------------------------------------

def cmd_manifest_sign(args) -> int:
    from .manifest import (
        compute_measurement, parse_template, resolver_for_root, serialize, sign_manifest)
    with open(args.template, encoding="utf-8") as fh:
        template = parse_template(fh.read())
    root = args.root or os.path.dirname(os.path.abspath(args.template))
    final = sign_manifest(template, resolver_for_root(root, template.mounts))
    with open(args.output, "wb") as fh:
        fh.write(serialize(final))
    print(compute_measurement(final).hex)
    return 0


def _load_final(path):
    from . import manifest
    with open(path, "rb") as fh:
        return manifest.load(fh.read())


def cmd_manifest_measure(args) -> int:
    from .manifest import compute_measurement
    print(compute_measurement(_load_final(args.final)).hex)
    return 0


# -- pcs ---------------------------------------------------------------------

def _serve(server: wire.FrameServer, banner: str) -> int:
    """Start the server, print its banner and serve until SIGINT or
    SIGTERM, either of which exits 0, also when it arrives during the
    banner. The caller's `with` stops the server. A SIGINT inherited as
    ignored (a background job) stays ignored; SIGTERM still stops it."""
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.start()
        print(banner)
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_pcs_serve(args) -> int:
    """The one command that reads or writes the registry file: the server
    it starts is its only writer while it runs."""
    from . import pcs_service
    from .attestation import PcsDatabase
    fresh = not os.path.exists(args.db)
    db = PcsDatabase.create(now=int(time.time())) if fresh else PcsDatabase.load(args.db)
    host, port = _addr(args.listen)
    with pcs_service.PcsServer(db, host=host, port=port, db_path=args.db) as server:
        if fresh:  # saved once the port is bound, before the first request
            db.save(args.db)
        return _serve(server, f"mock PCS serving on {server.address[0]}:"
                              f"{server.address[1]} (root key {db.root_public_key.hex()})")


def cmd_pcs_register(args) -> int:
    from . import pcs_service
    platform, chain = pcs_service.register_platform(_addr(args.pcs), args.tcb)
    print(f"platform_id: {platform.platform_id.hex()}")
    print(f"root_key: {chain.root_cert.public_key.hex()}")
    if args.identity_out:
        pcs_service.save_identity(args.identity_out, platform, chain)
        print(f"identity written to {args.identity_out}")
    return 0


def cmd_pcs_revoke(args) -> int:
    from . import pcs_service
    from .attestation import PLATFORM_ID
    crl = pcs_service.revoke_platform(_addr(args.pcs), PLATFORM_ID.decode(args.platform_id))
    print(f"revoked; CRL sequence now {crl.sequence}")
    return 0


# -- keyserver ----------------------------------------------------------------

def cmd_keyserver_add_secret(args) -> int:
    import fcntl
    from .attestation import HASH, PUBLIC_KEY, VerificationPolicy
    from .provisioning import SECRET, KeyVault, vault_load, vault_save
    # concurrent adders to one vault take turns, so none saves over another's secret
    with open(f"{args.vault}.lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(args.vault):
            vault = vault_load(args.vault, args.passphrase)
        else:
            vault = KeyVault()
        policy = VerificationPolicy(
            accepted_root=PUBLIC_KEY.decode(args.root_hex),
            expected_mr_enclave=codec.optional(HASH).decode(args.policy_mrenclave),
            expected_mr_signer=codec.optional(HASH).decode(args.policy_mrsigner),
            min_isv_svn=args.min_svn, min_tcb_level=args.min_tcb)
        vault.add_secret(args.name, SECRET.decode(args.secret_hex), policy)
        vault_save(vault, args.vault, args.passphrase)
    print(f"vault now holds {len(vault)} secret(s): {', '.join(vault.names())}")
    return 0


def cmd_keyserver_serve(args) -> int:
    from . import crypto
    from .attestation import PUBLIC_KEY
    from .provisioning import key_server, vault_load
    vault = vault_load(args.vault, args.passphrase)
    signing_key = (crypto.signing_key(KEY.decode(args.signing_key_hex))
                   if args.signing_key_hex else crypto.sign_generate())
    host, port = _addr(args.listen)
    with key_server(vault, _addr(args.pcs), PUBLIC_KEY.decode(args.root_hex), signing_key,
                    min_isv_svn=args.min_svn, min_tcb_level=args.min_tcb,
                    host=host, port=port, audit_path=args.audit) as server:
        if args.pin_out:
            with open(args.pin_out, "w", encoding="utf-8") as fh:
                fh.write(signing_key.public.hex() + "\n")
        return _serve(server, f"key server on {server.address[0]}:{server.address[1]}, "
                              f"pin {signing_key.public.hex()}")


# -- enclave ------------------------------------------------------------------

def cmd_enclave_start(args) -> int:
    from .enclave import enclave_start
    final = _load_final(args.manifest)
    instance = enclave_start(final, args.root)
    print(f"measurement: {instance.measurement.hex}")
    print(f"mounts: {len(final.template.mounts)}, "
          f"trusted files verified: {len(final.trusted_file_hashes)}")
    return 0


def cmd_enclave_run(args) -> int:
    from . import pcs_service
    from .attestation import PUBLIC_KEY
    from .enclave import WorkloadSpec, enclave_start
    from .provisioning import client_request_key
    final = _load_final(args.manifest)
    platform, chain = pcs_service.load_identity(args.identity)
    instance = enclave_start(final, args.root, platform=platform, cert_chain=chain)
    workload = codec.load(WorkloadSpec.RECORD, instance.read_file(args.workload))
    with open(args.pin_file, encoding="utf-8") as fh:
        pin = PUBLIC_KEY.decode(fh.read().strip())
    instance.provisioned_secrets[workload.key_name] = client_request_key(
        _addr(args.keyserver), workload.key_name, instance.quote_provider(), pin)
    rows = instance.run(workload)
    print(f"workload complete: {rows} row(s) -> {workload.output_path}")
    return 0


# -- demo ----------------------------------------------------------------------

def cmd_demo(args) -> int:
    from .workflow import DemoConfig, parse_config, workflow_demo
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    else:
        config = DemoConfig()
    overrides = {"fault": args.fault, "workdir": args.workdir}
    config = dataclasses.replace(
        config, **{name: value for name, value in overrides.items() if value is not None})
    report = workflow_demo(config)
    print()
    print(report.table())
    passed = sum(1 for s in report.steps if s.ok)
    print(f"\n{passed}/8 steps passed; report: {report.workdir}/demo_report.json")
    return report.exit_code


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enclavesim",
        description="attested, encrypted ML deployment pipeline (simulated)")
    sub = parser.add_subparsers(dest="group", required=True)

    # pfs
    p_pfs = sub.add_parser("pfs", help="protected file containers")
    pfs_sub = p_pfs.add_subparsers(dest="command", required=True)
    p = pfs_sub.add_parser("encrypt", help="plaintext file -> protected container")
    p.add_argument("input"), p.add_argument("output")
    p.add_argument("--key-hex", required=True)
    p.add_argument("--label", required=True,
                   help="filename label bound into the container")
    p.set_defaults(func=cmd_pfs_encrypt)
    p = pfs_sub.add_parser("decrypt", help="protected container -> plaintext file")
    p.add_argument("input"), p.add_argument("output")
    p.add_argument("--key-hex", required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(func=cmd_pfs_decrypt)
    p = pfs_sub.add_parser("verify", help="audit every node (exit 0/1)")
    p.add_argument("file")
    p.add_argument("--key-hex", required=True)
    p.set_defaults(func=cmd_pfs_verify)
    p = pfs_sub.add_parser("info", help="container facts")
    p.add_argument("file")
    p.add_argument("--key-hex")
    p.set_defaults(func=cmd_pfs_info)

    # manifest
    p_man = sub.add_parser("manifest", help="signer and measurement")
    man_sub = p_man.add_subparsers(dest="command", required=True)
    p = man_sub.add_parser("sign", help="template -> final manifest (prints measurement)")
    p.add_argument("template")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--root", help="host root for trusted-file resolution "
                                  "(default: template directory)")
    p.set_defaults(func=cmd_manifest_sign)
    p = man_sub.add_parser("measure", help="print a final manifest's measurement")
    p.add_argument("final")
    p.set_defaults(func=cmd_manifest_measure)

    # pcs
    p_pcs = sub.add_parser("pcs", help="mock provisioning certification service")
    pcs_sub = p_pcs.add_subparsers(dest="command", required=True)
    p = pcs_sub.add_parser("serve")
    p.add_argument("--db", required=True)
    p.add_argument("--listen", default="127.0.0.1:0")
    p.set_defaults(func=cmd_pcs_serve)
    p = pcs_sub.add_parser("register")
    p.add_argument("--pcs", required=True, help="mock PCS host:port")
    p.add_argument("--tcb", type=codec.decimal, default=1)
    p.add_argument("--identity-out", help="write the platform identity JSON here")
    p.set_defaults(func=cmd_pcs_register)
    p = pcs_sub.add_parser("revoke")
    p.add_argument("platform_id")
    p.add_argument("--pcs", required=True, help="mock PCS host:port")
    p.set_defaults(func=cmd_pcs_revoke)

    # keyserver
    p_ks = sub.add_parser("keyserver", help="policy-gated secret provisioning")
    ks_sub = p_ks.add_subparsers(dest="command", required=True)
    p = ks_sub.add_parser("serve")
    p.add_argument("--vault", required=True)
    p.add_argument("--passphrase", required=True)
    p.add_argument("--listen", default="127.0.0.1:0")
    p.add_argument("--pcs", required=True, help="mock PCS host:port (CRL source)")
    p.add_argument("--root-hex", required=True, help="pinned PCS root public key")
    p.add_argument("--min-svn", type=codec.decimal, default=0)
    p.add_argument("--min-tcb", type=codec.decimal, default=0)
    p.add_argument("--pin-out", help="write this server's public key hex here")
    p.add_argument("--signing-key-hex", help="long-term Ed25519 private key "
                                             "(default: fresh)")
    p.add_argument("--audit", help="append audit records to this file")
    p.set_defaults(func=cmd_keyserver_serve)
    p = ks_sub.add_parser("add-secret")
    p.add_argument("--vault", required=True)
    p.add_argument("--passphrase", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--secret-hex", required=True)
    p.add_argument("--root-hex", required=True)
    p.add_argument("--policy-mrenclave")
    p.add_argument("--policy-mrsigner")
    p.add_argument("--min-svn", type=codec.decimal, default=0)
    p.add_argument("--min-tcb", type=codec.decimal, default=0)
    p.set_defaults(func=cmd_keyserver_add_secret)

    # enclave
    p_enc = sub.add_parser("enclave", help="simulated enclave host")
    enc_sub = p_enc.add_subparsers(dest="command", required=True)
    p = enc_sub.add_parser("start", help="validate a deployment and print its measurement")
    p.add_argument("--manifest", required=True)
    p.add_argument("--root", required=True)
    p.set_defaults(func=cmd_enclave_start)
    p = enc_sub.add_parser("run", help="start, provision, and run a workload")
    p.add_argument("--manifest", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", default="/app/workload.json",
                   help="enclave path of the workload spec")
    p.add_argument("--identity", required=True,
                   help="platform identity JSON from 'pcs register'")
    p.add_argument("--keyserver", required=True, help="host:port")
    p.add_argument("--pin-file", required=True,
                   help="file holding the key server's public key hex")
    p.set_defaults(func=cmd_enclave_run)

    # demo
    p = sub.add_parser("demo", help="run the full 8-step workflow")
    p.add_argument("--config", help="demo config file (key = value lines)")
    p.add_argument("--fault", help="none, revoked_platform, tamper_input or wrong_manifest")
    p.add_argument("--workdir")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        detail = str(exc) if isinstance(exc, CliError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
