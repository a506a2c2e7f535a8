"""Command-line toolchain: keygen, synth, layout, encrypt, infer, decrypt, bench.

Roles are directory-based: the client owns a key directory with the secret
key; the server receives a copy without it (``keygen --server-out`` or
``export_public_keyset``) and the ``infer`` subcommand refuses to run if a
secret key is present in its key directory.

Exit codes: 0 success, 2 usage, 3 format/validation, 4 crypto/noise failure.
Set HEDGEROW_THREADS to cap sample-level parallelism.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

from .errors import (
    DepthExhaustedError,
    FingerprintMismatchError,
    MissingGaloisKeyError,
    ModelFormatError,
    NoiseBudgetError,
    ParamError,
    SerializationError,
)
from .modelio import (
    build_layout, gen_synthetic, load_dataset, load_ensemble, load_layout, load_svm,
    save_dataset, save_ensemble, save_layout, save_svm,
)
from .params import PRESET_NAMES, gen_params, load_params
from .pipeline import (
    MODES, PARAMS_FILE, export_public_keyset, format_bench_table, load_keyset, run_bench,
    run_decrypt, run_encrypt, run_infer, write_keyset,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CRYPTO = 4

_FORMAT_ERRORS = (ModelFormatError, ParamError, SerializationError, OSError)
_CRYPTO_ERRORS = (
    FingerprintMismatchError,
    DepthExhaustedError,
    MissingGaloisKeyError,
    NoiseBudgetError,
)


def _parse_seed(text: str | None) -> int | bytes:
    """Seed as decimal, or hex with 0x prefix (up to 256 bits); without
    one, 32 fresh random bytes."""
    if text is None:
        return secrets.token_bytes(32)
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError as exc:
        raise ModelFormatError(f"seed is not a number: {text!r}") from exc
    if value < 0 or value >= 1 << 256:
        raise ModelFormatError("seed must be a non-negative 256-bit value")
    return value


def _cmd_keygen(args) -> int:
    params = gen_params(args.preset)
    seconds = write_keyset(args.out, params, _parse_seed(args.seed))
    if args.server_out:
        export_public_keyset(args.out, args.server_out)
    print(f"keygen: preset={args.preset} N={params.ring_degree} "
          f"primes={len(params.coeff_modulus)} t={params.plaintext_modulus} "
          f"security~{params.security_bits():.0f} bits ({seconds:.3f}s) -> {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    seed = _parse_seed(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ens, svm_model, dataset = gen_synthetic(
        seed, args.classes, args.trees, args.features, args.samples
    )
    save_ensemble(ens, out / "ensemble.json")
    save_svm(svm_model, out / "svm.json")
    save_dataset(dataset, out / "data.csv")
    print(f"synth: {args.classes} classes x {args.trees} trees, {args.features} features, "
          f"{args.samples} samples -> {out}")
    return EXIT_OK


def _cmd_layout(args) -> int:
    params = load_params(Path(args.keys) / PARAMS_FILE)
    ens = load_ensemble(args.model, params.plaintext_modulus)
    svm_features = None
    if args.svm:
        svm_features = load_svm(args.svm, params.plaintext_modulus).num_features
    layout = build_layout(ens, params.slot_count, svm_features=svm_features)
    save_layout(layout, args.out)
    print(f"layout: {layout.num_blocks} block(s) x {layout.trees_per_block} trees -> {args.out}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    layout = load_layout(args.model_layout)
    dataset = load_dataset(args.data, labeled=args.labeled)
    keyset = load_keyset(args.keys)
    seconds = run_encrypt(layout, dataset, keyset, _parse_seed(args.seed), args.out)
    print(f"encrypt: {dataset.num_samples} sample bundle(s) in {seconds:.3f}s -> {args.out}")
    return EXIT_OK


def _cmd_infer(args) -> int:
    seconds = run_infer(
        args.mode, args.model, args.infile, args.keys, args.out, _parse_seed(args.seed)
    )
    print(f"infer: mode={args.mode} comp={seconds:.3f}s -> {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    seconds, predictions, _ = run_decrypt(args.infile, args.keys, args.report)
    print(f"decrypt: {len(predictions)} sample(s) in {seconds:.3f}s -> {args.report}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows, reports = [], {}
    for mode in args.mode:
        timing, evals = run_bench(
            mode, args.samples, _parse_seed(args.seed), args.classes, args.trees, args.features,
            workdir=Path(args.workdir) / mode if args.workdir else None,
        )
        rows.append((mode, timing, evals.micro_auc))
        reports[mode] = {**timing.as_dict(), "microAUC": evals.micro_auc,
                         "accuracy": evals.accuracy}
    print(format_bench_table(rows))
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(reports, indent=2), encoding="utf-8")
        print(f"bench json -> {args.json}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgerow",
        description="Encrypted tree-ensemble and SVM inference toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate params and keys for a preset")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--seed", help="256-bit seed (decimal or 0x hex) that fixes every key, "
                   "the secret key too (default: fresh random)")
    p.add_argument("--out", required=True, help="client key directory")
    p.add_argument("--server-out", help="also write a secret-free server key directory")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("synth", help="generate a synthetic model + dataset")
    p.add_argument("--seed", required=True)
    p.add_argument("--classes", type=int, default=11)
    p.add_argument("--trees", type=int, default=128)
    p.add_argument("--features", type=int, default=256)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("layout", help="publish the client packing layout for a model")
    p.add_argument("--model", required=True, help="ensemble JSON")
    p.add_argument("--svm", help="SVM JSON (fixes the SVM vector width)")
    p.add_argument("--keys", required=True, help="key directory (for slot count)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("encrypt", help="client: pack and encrypt samples")
    p.add_argument("--model-layout", required=True)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--labeled", action="store_true", help="last CSV column is a label")
    p.add_argument("--keys", required=True)
    p.add_argument("--seed", help="encryption seed (decimal or 0x hex) for reproducible output; "
                   "under one seed, equal planes give equal ciphertexts, so reuse reveals "
                   "which planes two datasets share (default: fresh random)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("infer", help="server: evaluate encrypted scores")
    p.add_argument("--mode", required=True, choices=tuple(MODES))
    p.add_argument("--model", required=True, help="model JSON for the chosen mode")
    p.add_argument("--in", dest="infile", required=True, help="encrypted bundle directory")
    p.add_argument("--keys", required=True, help="server key directory (public only)")
    p.add_argument("--seed", default="0", help="used only to encrypt model planes in encmodel mode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("decrypt", help="client: decrypt scores and write the report")
    p.add_argument("--in", dest="infile", required=True, help="encrypted score directory")
    p.add_argument("--keys", required=True, help="key directory with the secret key")
    p.add_argument("--report", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("bench", help="timed end-to-end synthetic benchmark")
    p.add_argument("--mode", nargs="+", required=True, choices=tuple(MODES))
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", default="1")
    p.add_argument("--classes", type=int, default=11)
    p.add_argument("--trees", type=int, default=128)
    p.add_argument("--features", type=int, default=256)
    p.add_argument("--workdir", help="keep intermediate files here")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CRYPTO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRYPTO
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
