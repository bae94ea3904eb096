"""Command-line interface.

Subcommand groups: pfs (protected containers), manifest (signer and
measurement), pcs (mock certification service), keyserver (secret
provisioning), enclave (start/run workloads), demo (full workflow).
Exit codes: 0 success, then `workflow.exit_code` of the first error:
1 attestation failure, 2 integrity failure, 3 anything else. `pfs verify`
exits 1 when a node fails to authenticate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import pcs_service, pfs
from .attestation import PcsDatabase, VerificationPolicy
from .enclave import WorkloadSpec, enclave_start
from .manifest import (
    compute_measurement,
    load as load_manifest,
    parse_template,
    resolver_for_root,
    serialize,
    sign_manifest,
)
from .provisioning import KeyServer, KeyVault, vault_load, vault_save
from .wire import FrameServer, read_json
from .workflow import EXIT_OK, FAULTS, DemoConfig, exit_code, parse_config, workflow_demo


class CliError(Exception):
    """An argument the CLI itself rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError, so it exits 3 with one error line."""

    def error(self, message):
        raise CliError(message)


def _key_from_hex(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError:
        raise CliError("key must be hex")
    if len(key) != 32:
        raise CliError("key must be 32 bytes (64 hex chars)")
    return key


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise CliError(f"expected host:port, got {text!r}")
    return host, int(port)


# -- pfs ------------------------------------------------------------------

def cmd_pfs_encrypt(args) -> int:
    key = _key_from_hex(args.key_hex)
    with open(args.input, "rb") as fh:
        data = fh.read()
    with pfs.ProtectedFile.create(args.output, args.label, key) as handle:
        handle.write(0, data)
    print(f"encrypted {len(data)} bytes -> {args.output}")
    return EXIT_OK


def cmd_pfs_decrypt(args) -> int:
    key = _key_from_hex(args.key_hex)
    with pfs.ProtectedFile.open(args.input, args.label, key) as handle:
        data = handle.read(0, handle.size)
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"decrypted {len(data)} bytes -> {args.output}")
    return EXIT_OK


def cmd_pfs_verify(args) -> int:
    key = _key_from_hex(args.key_hex)
    report = pfs.verify_file(args.file, key)
    if report.ok:
        print("ok: every node authenticates")
        return EXIT_OK
    print(f"FAILED at {report.first_bad_node}")
    return 1


def cmd_pfs_info(args) -> int:
    key = _key_from_hex(args.key_hex) if args.key_hex else None
    meta = pfs.info(args.file, key)
    for field in ("uuid", "file_size", "data_blocks", "mht_nodes",
                  "total_nodes", "disk_size", "label"):
        if field in meta:
            print(f"{field}: {meta[field]}")
    return EXIT_OK


# -- manifest ---------------------------------------------------------------

def cmd_manifest_sign(args) -> int:
    with open(args.template, encoding="utf-8") as fh:
        template = parse_template(fh.read())
    root = args.root or os.path.dirname(os.path.abspath(args.template))
    final = sign_manifest(template, resolver_for_root(root, template.mounts))
    with open(args.output, "wb") as fh:
        fh.write(serialize(final))
    print(compute_measurement(final).hex)
    return EXIT_OK


def cmd_manifest_measure(args) -> int:
    with open(args.final, "rb") as fh:
        final = load_manifest(fh.read())
    print(compute_measurement(final).hex)
    return EXIT_OK


# -- pcs ---------------------------------------------------------------------

def _serve(server: FrameServer, banner: str, pool: pcs_service.PcsPool | None = None) -> int:
    """Start the server, print its banner and serve until SIGINT, which
    stops it and exits 0, also when it arrives during the banner. The
    server's PCS connection pool, if any, is closed once it has stopped."""
    try:
        server.start()
        print(banner)
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if pool is not None:
            pool.close()
    return EXIT_OK


def cmd_pcs_serve(args) -> int:
    """The one command that reads or writes the registry file: the server
    it starts is its only writer while it runs."""
    fresh = not os.path.exists(args.db)
    db = PcsDatabase.create(now=int(time.time())) if fresh else PcsDatabase.load(args.db)
    host, port = _addr(args.listen)
    server = pcs_service.PcsServer(db, host=host, port=port, db_path=args.db)
    if fresh:  # saved once the port is bound, before the first request
        db.save(args.db)
    return _serve(server, f"mock PCS serving on {server.address[0]}:"
                          f"{server.address[1]} (root key {db.root_public_key.hex()})")


def cmd_pcs_register(args) -> int:
    platform, chain = pcs_service.register_platform(_addr(args.pcs), args.tcb)
    print(f"platform_id: {platform.platform_id.hex()}")
    print(f"root_key: {chain.root_cert.public_key.hex()}")
    if args.identity_out:
        with open(args.identity_out, "w", encoding="utf-8") as fh:
            json.dump(pcs_service.identity_to_dict(platform, chain), fh, indent=2)
            fh.write("\n")
        print(f"identity written to {args.identity_out}")
    return EXIT_OK


def cmd_pcs_revoke(args) -> int:
    crl = pcs_service.revoke_platform(_addr(args.pcs), bytes.fromhex(args.platform_id))
    print(f"revoked; CRL sequence now {crl.sequence}")
    return EXIT_OK


# -- keyserver ----------------------------------------------------------------

def _policy_from_args(args) -> VerificationPolicy:
    return VerificationPolicy(
        accepted_root=_key_from_hex(args.root_hex),
        expected_mr_enclave=(bytes.fromhex(args.policy_mrenclave)
                             if args.policy_mrenclave else None),
        expected_mr_signer=(bytes.fromhex(args.policy_mrsigner)
                            if args.policy_mrsigner else None),
        min_isv_svn=args.min_svn,
        min_tcb_level=args.min_tcb,
    )


def cmd_keyserver_add_secret(args) -> int:
    if os.path.exists(args.vault):
        vault = vault_load(args.vault, args.passphrase)
    else:
        vault = KeyVault()
    vault.add_secret(args.name, bytes.fromhex(args.secret_hex),
                     _policy_from_args(args))
    vault_save(vault, args.vault, args.passphrase)
    print(f"vault now holds {len(vault)} secret(s): {', '.join(vault.names())}")
    return EXIT_OK


def cmd_keyserver_serve(args) -> int:
    from . import crypto

    vault = vault_load(args.vault, args.passphrase)
    session_policy = VerificationPolicy(
        accepted_root=_key_from_hex(args.root_hex),
        min_isv_svn=args.min_svn, min_tcb_level=args.min_tcb)
    signing_key = (crypto.signing_key(bytes.fromhex(args.signing_key_hex))
                   if args.signing_key_hex else crypto.sign_generate())

    pool = pcs_service.PcsPool(_addr(args.pcs))
    host, port = _addr(args.listen)
    server = KeyServer(vault, session_policy, signing_key, crl_provider=pool.crl,
                       host=host, port=port, audit_path=args.audit)
    if args.pin_out:
        with open(args.pin_out, "w", encoding="utf-8") as fh:
            fh.write(signing_key.public.hex() + "\n")
    return _serve(server, f"key server on {server.address[0]}:{server.address[1]}, "
                          f"pin {signing_key.public.hex()}", pool)


# -- enclave ------------------------------------------------------------------

def _load_final(path):
    with open(path, "rb") as fh:
        return load_manifest(fh.read())


def cmd_enclave_start(args) -> int:
    final = _load_final(args.manifest)
    instance = enclave_start(final, args.root)
    print(f"measurement: {instance.measurement.hex}")
    print(f"mounts: {len(final.template.mounts)}, "
          f"trusted files verified: {len(final.trusted_file_hashes)}")
    return EXIT_OK


def cmd_enclave_run(args) -> int:
    final = _load_final(args.manifest)
    with open(args.identity, "rb") as fh:
        platform, chain = pcs_service.identity_from_dict(read_json(fh.read()))
    instance = enclave_start(final, args.root, platform=platform, cert_chain=chain)
    workload = WorkloadSpec.from_json(instance.read_file(args.workload))
    with open(args.pin_file, encoding="utf-8") as fh:
        pin = bytes.fromhex(fh.read().strip())
    instance.provision(_addr(args.keyserver), pin, workload.key_name)
    report = instance.run(workload)
    print(f"workload complete: {report.rows} row(s) -> {report.output_path}")
    return EXIT_OK


# -- demo ----------------------------------------------------------------------

def cmd_demo(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    else:
        config = DemoConfig()
    if args.fault:
        config.fault = args.fault
    if args.workdir:
        config.workdir = args.workdir
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
    p.add_argument("--tcb", type=int, default=1)
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
    p.add_argument("--min-svn", type=int, default=0)
    p.add_argument("--min-tcb", type=int, default=0)
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
    p.add_argument("--min-svn", type=int, default=0)
    p.add_argument("--min-tcb", type=int, default=0)
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
    p.add_argument("--fault", choices=FAULTS)
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
