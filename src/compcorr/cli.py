"""Command-line entry point: analyze, edss, sweep, verify."""

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from .edss import ancilla_state, edss_useful, run_protocol, sweep, sweep_csv, sweep_summary
from .entanglement import require_separable
from .matcore import fmt
from .oracle import run_verification, verification_report
from .report import report_for_bd
from .states import IDENTITY_FRAME, BellDiagonalParams, bd_params_of, bell_diagonal, load_state


def _floats(text: str, counts: tuple[int, ...], usage: str) -> list[float]:
    """The comma-separated decimals of text, refused with usage unless counts holds their count."""
    parts = text.split(",")
    if len(parts) not in counts:
        raise argparse.ArgumentTypeError(usage)
    try:
        return [float(x) for x in parts]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _parse_bd(text: str) -> tuple[float, ...]:
    # the command builds the BellDiagonalParams, so that its error reaches main
    return tuple(_floats(text, (3,), "expected three comma-separated decimals: c1,c2,c3"))


def _parse_ancilla(text: str):
    """'auto', or the (theta, phi, r) triple of a fixed ancilla; r defaults to 1."""
    if text == "auto":
        return "auto"
    vals = _floats(text, (2, 3), "expected 'auto' or THETA,PHI[,R]")
    return tuple(vals) if len(vals) == 3 else (*vals, 1.0)


def _triple(args) -> tuple[BellDiagonalParams, np.ndarray, np.ndarray]:
    """(p, RA, RB) of a state file through `bd_params_of`, or a --bd triple in its own frame."""
    if args.state is not None:
        return bd_params_of(load_state(args.state))
    return BellDiagonalParams(*args.bd), IDENTITY_FRAME, IDENTITY_FRAME


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _text(doc: dict) -> str:
    """One 'key value' line per entry, a line per cut for 'stages', and no
    line for a None value."""
    lines = []
    for key, value in doc.items():
        if key == "stages":
            for stage, cuts in value.items():
                for cut, info in cuts.items():
                    lines.append(
                        f"{stage} {cut} min_eigenvalue {fmt(info['min_eigenvalue'])} "
                        f"is_ppt {fmt(info['is_ppt'])} spectrum {fmt(info['pt_spectrum'])}"
                    )
        elif value is not None:
            lines.append(f"{key} {fmt(value)}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    doc = dataclasses.asdict(report_for_bd(*_triple(args)))
    if args.format == "json":
        text = json.dumps(doc, indent=1) + "\n"
    elif args.format == "csv":
        text = ",".join(doc) + "\n" + ",".join(fmt(v) for v in doc.values()) + "\n"
    else:
        text = _text(doc)
    _emit(text, args.out)
    return 0


def _trace_doc(trace) -> dict:
    doc = {
        "success": trace.success,
        "send_step_ppt": trace.send_step_ppt,
        "stages": {},
    }
    for stage, verdicts in trace.stage_verdicts.items():
        doc["stages"][stage] = {
            v.cut: {
                "min_eigenvalue": v.min_eigenvalue,
                "is_ppt": v.is_ppt,
                "pt_spectrum": list(v.spectrum),
            }
            for v in verdicts
        }
    return doc


def _cmd_edss(args) -> int:
    p, RA, RB = _triple(args)
    if args.ancilla == "auto":
        result = edss_useful(p)  # refuses an entangled p
        doc = {}
        if result.witness is not None:  # with no witness there is no ancilla worth tracing
            doc = _trace_doc(run_protocol(bell_diagonal(p), ancilla_state(*result.witness)))
        doc["edss_useful"] = result.useful
        doc["witness"] = None if result.witness is None else list(result.witness)
        doc["r_a"] = result.r_a
        doc["s_c"] = result.s_c
    else:
        require_separable(p)
        doc = _trace_doc(run_protocol(bell_diagonal(p), ancilla_state(*args.ancilla)))
        doc["ancilla"] = list(args.ancilla)
    if not np.array_equal([RA, RB], [IDENTITY_FRAME] * 2):  # trace and witness are of the rotated state
        doc["rotations"] = [RA.tolist(), RB.tolist()]

    text = json.dumps(doc, indent=1) + "\n" if args.format == "json" else _text(doc)
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep(args.grid)
    _emit(sweep_csv(rows), args.out)
    print(sweep_summary(rows), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    checks = run_verification(seed=args.seed, samples=args.samples)
    _emit(verification_report(checks), args.out)
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compcorr",
        description="Two-qubit correlation toolkit: complementary correlations, "
        "discord, PPT verdicts, and entanglement distribution with separable states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--bd", type=_parse_bd, help="Bell-diagonal triple c1,c2,c3")
        group.add_argument("--state", help="path to a state file (dims, matrix_re, matrix_im)")

    p = sub.add_parser("analyze", help="full correlation report for one state")
    add_state_source(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("edss", help="run the distribution protocol on a separable state")
    add_state_source(p)
    p.add_argument("--ancilla", type=_parse_ancilla, default="auto", help="'auto' or THETA,PHI[,R]")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_edss)

    p = sub.add_parser("sweep", help="evaluate the separable grid and write a CSV table")
    p.add_argument("--grid", type=int, default=9, help="resolution per axis on [-1, 1]")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes "-0.5,..." for an option, not in "--bd=-0.5,..."
        flag = argv[i - 1]  # --bd, --ancilla or a prefix of either that argparse accepts: --b, --anc, ...
        if len(flag) > 2 and any(f.startswith(flag) for f in ("--bd", "--ancilla")) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{flag}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
