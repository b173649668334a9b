"""Command-line driver with machine-readable JSON reports.

Each subcommand's handler computes its report and returns it with its
verdict, and writes nothing itself.  main stamps the report with "schema"
(SCHEMA) and "command" (the subcommand's name), writes it as one line of
sorted, compact JSON to the --out file or else to stdout, and returns the
exit code: 0 when the verdict holds, 1 when a mathematical check failed.  The
verdict is the report's "ok" field; construct, whose report has none, returns
the witness report's.  An exception becomes exit code 2 for usage errors, 1
for internal errors and 3 for resource or I/O errors, and then no report is
written.  Only argv gives exit 2: read_argv checks the command line against
the COMMANDS table, and each handler what it reads from it, before any work,
and both raise UsageError.  Any other exception that main does not name, a
ValueError too, is an internal error, printed as "internal error: <type>:
<message>" with no traceback; Python's refusal to write a computed integer as
text is a resource limit.  Reports are deterministic byte-for-byte for a
fixed configuration (timings go to stderr, never into the JSON).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

# coinv and involution run on these alone, and they load no Magnus or Lie
# code; every other handler imports the modules it runs, so that a command
# loads no module it does not run
from . import coinv, linalg, series

SCHEMA = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# largest phi and coinv --weight K: phi takes time ~K^2; coinv eliminates
# K(K-1)/2 sparse rows twice, and at K = 64 the build and the oracle take
# about 0.011 s and 0.15 s over Q, the slowest ring (2-core Intel Xeon,
# Python 3.11.7)
MAX_SERIES_WEIGHT = 64
# largest report --weight K, and largest weight 2n + 2 of identities --max-n:
# at the limit identities takes about 5-8 s and report about 0.4 s, as it
# builds one basis and its eight witnesses at K = 8 whatever its weight
# (2-core Intel Xeon, Python 3.11.7)
MAX_REPORT_WEIGHT = 20


class UsageError(Exception):
    """Bad argv, found before any work (exit 2)."""


class InputError(Exception):
    """An input file that was read but holds bad data (exit 3)."""


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise OSError(f"cannot read {what} file: {exc}") from exc


def _parse_q(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad sequence {text!r}: {exc}") from None


def _from_argv(parse, text: str):
    """parse(text) for text from argv, where a ValueError is bad usage: a
    ring tag that names no ring, a word that does not parse, or an integer
    too long to read."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(exc) from None


def cmd_identities(args) -> tuple[dict, bool]:
    from . import freelie, magnus

    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if 2 * args.max_n + 2 > MAX_REPORT_WEIGHT:
        raise UsageError(f"--max-n must be at most {(MAX_REPORT_WEIGHT - 2) // 2}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        lie_ok = freelie.check_identity(n)
        group_ok = magnus.check_group_identity(n)
        ok &= lie_ok and group_ok
        results.append({"n": n, "lie": lie_ok, "group": group_ok})
    report = {
        "config": {"max_n": args.max_n},
        "results": results,
        "ok": ok,
    }
    return report, report["ok"]


def cmd_construct(args) -> tuple[dict, bool]:
    from . import witness

    q = _parse_q(args.q)
    if not 3 <= args.weight <= witness.MAX_K:
        raise UsageError(f"K must be in 3..{witness.MAX_K}")
    pair = witness.build_witness(q, args.weight)
    return pair.to_json(), pair.report.ok


def cmd_verify(args) -> tuple[dict, bool]:
    from . import witness

    data = _load_json(args.infile, "witness")
    try:
        pair = witness.WitnessPair.from_json(data)
    except KeyError as exc:
        raise InputError(f"witness file lacks the key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"bad witness file: {type(exc).__name__}: {exc}") from None
    try:
        report = witness.verify_witness(pair)
    except RecursionError:
        raise InputError("witness words are nested too deeply to evaluate") from None
    payload = {
        "q": list(pair.q),
        "K": pair.K,
        "report": report.to_json(),
        "ok": report.ok,
    }
    return payload, payload["ok"]


def cmd_phi(args) -> tuple[dict, bool]:
    from .lamplighter import gamma_weight_lamp, phi_word
    from .words import parse_word_expr

    if args.weight > MAX_SERIES_WEIGHT:
        raise UsageError(f"--weight must be at most {MAX_SERIES_WEIGHT}")
    if args.weight < 1:
        raise UsageError("--weight must be >= 1")
    ring = _from_argv(series.ring_from_tag, args.ring)
    try:
        img = phi_word(_from_argv(parse_word_expr, args.word), ring, args.weight)
    except RecursionError:
        raise UsageError("word nested too deeply to evaluate") from None
    weight = gamma_weight_lamp(img)
    payload = {
        "config": {"word": args.word, "ring": args.ring, "K": args.weight},
        "image": img.to_json(),
        "weight": "inf" if weight == series.INFINITE_WEIGHT else weight,
        "ok": True,
    }
    return payload, payload["ok"]


def _exact_coeffs(name: str, coeffs, K: int) -> list[Fraction]:
    """The coefficients of one series of a coinv --in file, which must be a
    JSON list of at most K integers and strings in Fraction syntax such as
    "1/10".  A float would be read as the value of its binary double and a
    bool as 0 or 1, so both raise TypeError, as does a series that is not a
    list; a longer list would lose its coefficients past x^(K-1), so it
    raises ValueError.  So does a string in exponent notation: from
    "1e10000000" Fraction would build the integer 10^10000000."""
    if type(coeffs) is not list:
        raise TypeError(f"series {name!r} is a JSON {type(coeffs).__name__}, not a list")
    if len(coeffs) > K:
        raise ValueError(f"series {name!r} has {len(coeffs)} coefficients, more than --weight {K}")
    for c in coeffs:
        if type(c) not in (int, str):
            raise TypeError(
                f"series {name!r} holds the JSON {type(c).__name__} {c!r}, "
                "not an integer or a string"
            )
        if type(c) is str and ("e" in c or "E" in c):
            raise ValueError(f"series {name!r} holds {c[:20]!r}, in exponent notation")
    return list(map(Fraction, coeffs))


def cmd_coinv(args) -> tuple[dict, bool]:
    ring = _from_argv(series.ring_from_tag, args.ring)
    if isinstance(ring, series.IntegerRing):
        raise UsageError("coinvariants are computed over Q or Z/p")
    if not 2 <= args.weight <= MAX_SERIES_WEIGHT:
        raise UsageError(f"--weight must be in 2..{MAX_SERIES_WEIGHT}")
    inputs = {}
    if args.infile:
        data = _load_json(args.infile, "series")
        try:
            found = data.get("series") if type(data) is dict else None
            if type(found) is not dict:
                raise TypeError('the file holds no JSON object under the key "series"')
            for name, coeffs in found.items():
                inputs[name] = series.TruncatedSeries.from_coeffs(
                    ring, args.weight, _exact_coeffs(name, coeffs, args.weight)
                )
        except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad series file: {type(exc).__name__}: {exc}") from None
    space = coinv.build_coinvariants(ring, args.weight)
    classes = {name: list(map(str, coinv.theta(f))) for name, f in inputs.items()}
    oracle = coinv.coinvariant_rank_oracle(ring, args.weight)
    payload = {
        **space.to_json(),
        "oracle_rank": oracle,
        "theta_classes": classes,
        "ok": oracle == space.rank,
    }
    return payload, payload["ok"]


def cmd_involution(args) -> tuple[dict, bool]:
    results = [
        coinv.involution_exactness_report(coinv.InvolutiveField(d, dim))
        for d, dim in ((-1, 2), (2, 2), (5, 3))
    ]
    payload = {"results": results, "ok": all(r["ok"] for r in results)}
    return payload, payload["ok"]


def cmd_report(args) -> tuple[dict, bool]:
    from . import freelie, magnus, witness
    from .lamplighter import phi_word

    if not 1 <= args.weight <= MAX_REPORT_WEIGHT:
        raise UsageError(f"--weight must be in 1..{MAX_REPORT_WEIGHT}")
    t0 = time.monotonic()
    sections = {}

    basis = freelie.hall_basis(args.weight)
    counts = [len(basis.words_of_weight(w)) for w in range(1, args.weight + 1)]
    witt = [freelie.witt_number(w) for w in range(1, args.weight + 1)]
    sections["basis_counts"] = {"counts": counts, "witt": witt, "ok": counts == witt}

    ids = {
        "lie": [freelie.check_identity(n) for n in (1, 2)],
        "group": [magnus.check_group_identity(n) for n in (1, 2)],
    }
    sections["identities"] = {**ids, "ok": all(ids["lie"]) and all(ids["group"])}

    filt = [
        series.check_augmentation_iso(series.ring_from_tag(tag), n)
        for tag in ("Z", "Q", "Zp:5")
        for n in (1, 3)
    ]
    sections["filtration_iso"] = {"checks": filt, "ok": all(filt)}

    anchors = []
    for k in range(1, args.weight):
        img = phi_word(f"[a,_{k} b]" if k > 1 else "[a,b]", "Z", args.weight)
        want = [0] * args.weight
        want[k] = 1
        anchors.append(list(img.f.coeffs) == want and img.e == 0)
    sections["shift_anchor"] = {"ok": all(anchors)}

    # f^r = sum_n C(r, n) (f - 1)^n, so each coefficient of f^r is a
    # polynomial of degree < 8 in r, and each side of f^(r1 + r2) =
    # f^r1 f^r2 has degree < 8 in each of r1 and r2: agreement on an 8 x 8
    # grid of distinct rationals proves the law for every r1 and r2
    f = series.TruncatedSeries.from_coeffs(
        series.QQ, 8, [1, Fraction(1, 2), Fraction(-2, 3), 3, Fraction(-1, 3), 2, Fraction(3, 2), -1]
    )
    grid = [Fraction(n, 2) for n in range(-4, 4)]
    # 0 is on the grid, so the sums include every grid point
    power = {r: series.rat_pow(f, r) for r in {r1 + r2 for r1 in grid for r2 in grid}}
    powers_ok = all(power[r1 + r2] == power[r1] * power[r2] for r1 in grid for r2 in grid)
    sections["rational_powers"] = {"ok": powers_ok}

    # every probe q in {0,1}^3, each built once at K = 8: the witness
    # section checks their reports and witness_classes their series
    K, sigma = 8, series.sigma_tilde
    witnesses = [witness.build_witness(q, K) for q in product((0, 1), repeat=3)]
    sections["witness"] = {
        "K": K,
        "results": [{"q": list(pair.q), "report": pair.report.to_json()} for pair in witnesses],
        "ok": all(pair.report.ok for pair in witnesses),
    }

    # witness series in the coinvariant quotient, where theta(f) = 0 exactly
    # when sigma(f) = f.  Checked: every probe's witness series is fixed, the
    # kernel of theta is the fixed space, and Phi kills every relation row.
    space = coinv.build_coinvariants(series.QQ, K)

    def over_q(coeffs):
        return series.TruncatedSeries.from_coeffs(series.QQ, K, coeffs)

    wseries = [over_q(witness.witness_series(pair).coeffs) for pair in witnesses]
    fixed = all(sigma(f) == f for f in wseries)
    x = [over_q((0,) * k + (1,)) for k in range(K)]
    # the series (1 + sigma)(x^k) are fixed, and they span the fixed space,
    # since a fixed f is (1 + sigma)(f / 2); they have rank ceil(K/2), theta
    # kills them and has rank floor(K/2), so its kernel, of dimension
    # ceil(K/2), is their span
    sym = [g + sigma(g) for g in x]
    zero_iff_fixed = (
        all(sigma(s) == s and not any(coinv.theta(s)) for s in sym)
        and linalg.field_rank([list(s.coeffs) for s in sym]) == (K + 1) // 2
        and linalg.field_rank([list(coinv.theta(g)) for g in x]) == K // 2
    )
    tx = [over_q((0,) * k + (1, 1)) for k in range(K)]  # t x^k = x^k + x^(k+1)
    kills = all(coinv.pairing(tx[i], tx[j]) == coinv.pairing(x[i], x[j]) for i, j in space.pairs)
    sections["witness_classes"] = {
        "rank": space.rank,
        "witnesses_fixed": fixed,
        "theta_zero_iff_fixed": zero_iff_fixed,
        "pairing_kills_relations": kills,
        "ok": fixed and zero_iff_fixed and kills,
    }

    ok = all(s["ok"] for s in sections.values())
    payload = {
        "config": {"weight": args.weight},
        "sections": sections,
        "ok": ok,
    }
    print(f"report completed in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return payload, payload["ok"]


# name -> (help, handler, arguments as (flags, options) pairs); every
# subcommand also takes OUT.  An argument's options are its "dest" (else its
# first flag without dashes), "type" (int, else the text), "default" (else
# None), "required" and "help".
COMMANDS = {
    "identities": ("bracket identity suites", cmd_identities, [(("--max-n",), dict(type=int, default=2))]),
    "construct": ("build and verify a witness pair", cmd_construct, [
        (("--q",), dict(required=True, help='sequence, e.g. "1,0,1,1"')),
        (("--weight", "-K"), dict(type=int, default=9)),
    ]),
    "verify": ("re-verify a witness JSON file", cmd_verify, [(("--in",), dict(dest="infile", required=True))]),
    "phi": ("lamplighter image of a word", cmd_phi, [
        (("--word",), dict(required=True)),
        (("--ring",), dict(default="Z", help="Z, Q, or Zp:<p>")),
        (("--weight", "-K"), dict(type=int, default=8)),
    ]),
    "coinv": ("exterior-square coinvariant ranks", cmd_coinv, [
        (("--ring",), dict(default="Q", help="Q or Zp:<p>")),
        (("--weight", "-K"), dict(type=int, default=6)),
        (("--in",), dict(dest="infile", help="JSON with series to classify")),
    ]),
    "involution": ("involutive-field exactness suite", cmd_involution, []),
    "report": ("aggregate verification report", cmd_report, [(("--weight", "-K"), dict(type=int, default=8))]),
}
OUT = (("--out",), dict(help="write the JSON report here"))
HELP = ("-h", "--help")


def _dest(flags, options) -> str:
    return options.get("dest", flags[0].lstrip("-").replace("-", "_"))


def usage(names=COMMANDS) -> str:
    """The help text of the named commands: each one's help and options."""
    lines = [
        "usage: nilwitness <command> [--flag value | --flag=value] ...",
        "",
        "exact checks for free nilpotent quotients, completed lamplighter "
        "groups, and truncated coinvariants",
    ]
    for name in names:
        help_text, _, arguments = COMMANDS[name]
        lines += ["", f"nilwitness {name}: {help_text}"]
        for flags, options in [*arguments, OUT]:
            metavar = "N" if options.get("type") is int else _dest(flags, options).upper()
            notes = [options["help"]] if "help" in options else []
            if options.get("required"):
                notes.append("required")
            elif options.get("default") is not None:
                notes.append(f"default {options['default']}")
            lines.append("  ".join([f"  {', '.join(flags)} {metavar}", *notes]))
    return "\n".join(lines) + "\n"


def read_argv(argv: list[str]) -> SimpleNamespace | str:
    """The command line read against COMMANDS: the command's name as
    "command" and its options by dest, or the help text if it asks for
    help.  After the command each token is a flag, "--flag=value" or a flag
    followed by its value, which is the next token whatever it starts with,
    so "--q -1,0,1" gives q "-1,0,1"; a repeated flag keeps its last value.
    A flag is spelt in full: "--wei" and "-K5" are refused."""
    if argv and argv[0] in HELP:
        return usage()
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise UsageError(f"{got}; expected one of {', '.join(COMMANDS)}")
    name = argv[0]
    arguments = [*COMMANDS[name][2], OUT]
    by_flag = {flag: (flags, options) for flags, options in arguments for flag in flags}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            return usage([name])
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            raise UsageError(f"{name} takes no argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{flag} needs a value")
        flags, options = by_flag[flag]
        if options.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} takes an integer, not {value[:20]!r}") from None
        values[_dest(flags, options)] = value
    args = SimpleNamespace(command=name)
    for flags, options in arguments:
        dest = _dest(flags, options)
        if dest not in values and options.get("required"):
            raise UsageError(f"{name} needs {flags[0]}")
        setattr(args, dest, values.get(dest, options.get("default")))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = read_argv(argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        report, ok = COMMANDS[args.command][1](args)
        _emit({"schema": SCHEMA, "command": args.command, **report}, args.out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        # every integer from outside was read at the edge, so this message
        # can only come from writing a computed one as text
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            print(f"resource limit exceeded: a result has more than {limit} digits, "
                  "Python's limit for writing an integer as text", file=sys.stderr)
            return EXIT_RESOURCE
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
