"""JSON and CSV codecs for plans, observations, spectra, and run artifacts.

Every float is printed as '%.17g' prints it: 17 significant digits, enough
for an IEEE double to round-trip exactly, so golden files can be compared
byte for byte. The writers emit keys in a fixed order for the same reason.
Arrays (posteriors, functions, spectra) go through a numpy printer that
computes those digits with integer arithmetic and hands the few values whose
rounding it cannot certify, exact ties among them, to '%'.

The plan reader checks types only: what JSON itself can get wrong (syntax,
objects, arrays, integers, booleans, unknown keys), plus reading a string p
such as "1/3" as an exact Fraction. Every range rule lives in the plan model,
whose PlanValidationError names its own field; the reader puts the document
path in front of it (steps[0] + p -> steps[0].p).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .conditioning import Observation
from .errors import PlanValidationError, check_degree
from .partitions import Partition, enumerate_partitions
from .perms import all_one_lines
from .pipeline import DiffusionStep, EmpiricalInitial, ExperimentPlan, RunReport
from .transform import FourierSpectrum, function_degree


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return f"{x:.17g}"


# The float printer: rows of '%.17g' text from integer arithmetic in numpy.
# For x in the decade [10^k, 10^(k+1)) its 17 digits are x * 10^(16-k) rounded
# half-even. That is a * P / 2^116 for the integer a = x * 2^(53 - e10) < 2^57
# and P = 10^(16-k) * 2^(63 + e10), truncated to an integer of 117 or 118
# bits, where e10 is frexp's exponent of 10^k. Every operand is uint64: numpy
# turns uint64 mixed with int64 into float64.
_U = np.uint64
_LIMB = _U(29)  # bits per limb: a limb product and the sum of two fit in 64 bits
_LOW29 = _U(2**29 - 1)
_CHUNK = 4096  # most rows per pass, so no temporary grows with the table
_FLOAT_WIDTH = 32  # bytes per printed float: at most 24 of text, then NULs
_K_MIN = -324  # 5e-324, the smallest double, lies in [1e-324, 1e-323)


def _read_only(*tables):
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _digit_words() -> np.ndarray:
    """The four ASCII digits of g < 10^4 as one '<u4' word, at index g; with
    leading zeros as NUL at g + 10000, and with trailing zeros as NUL at
    g + 20000."""
    digits = np.empty((3, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    digits = digits.reshape(3, 10000, 4)
    leading, trailing = digits[0] == ord("0"), digits[0] == ord("0")
    for j in range(1, 4):
        leading[:, j] &= leading[:, j - 1]
        trailing[:, 3 - j] &= trailing[:, 4 - j]
    digits[1][leading] = 0
    digits[2][trailing] = 0
    return _read_only(digits.view("<u4").ravel())[0]


@lru_cache(maxsize=None)
def _decade_tables():
    """lower, e10, power, decade; indexed by decade index i = k + 324 unless named.

    lower[i]: the smallest double >= 10^k (inf past the last decade);
    e10[i]: frexp's exponent of 10^k; power[j][i]: limb j of P, bits
    29j to 29j + 28 (limb 3 takes the rest, under 31 bits);
    decade[e + 1073]: the decade index of 2^(e-1), for each frexp exponent e.
    """
    pow10 = [1]
    for _ in range(340):
        pow10.append(pow10[-1] * 10)
    lower, e10, power = [], [], []
    for k in range(_K_MIN, 309):
        p10 = pow10[abs(k)]
        if k >= 0:
            nearest = float(p10)
            below = int(nearest) < p10
        else:
            nearest = 1 / p10  # int true division rounds correctly
            num, den = nearest.as_integer_ratio()
            below = num * p10 < den
        lower.append(math.nextafter(nearest, math.inf) if below else nearest)
        e = p10.bit_length() if k >= 0 else 1 - (p10 - 1).bit_length()
        e10.append(e)
        if k > 16:
            p = (1 << (63 + e)) // pow10[k - 16]
        elif e >= -63:
            p = pow10[16 - k] << (63 + e)
        else:
            p = pow10[16 - k] >> -(63 + e)
        power.append([p & (2**29 - 1), p >> 29 & (2**29 - 1), p >> 58 & (2**29 - 1), p >> 87])
    lower = np.array(lower + [math.inf])
    power = np.array(power, dtype=_U).T.copy()
    decade = np.searchsorted(lower, np.ldexp(1.0, np.arange(-1074, 1024)), side="right") - 1
    return _read_only(lower, np.array(e10), power, decade)


@lru_cache(maxsize=None)
def _row_words():
    """head, tail, moves: the fixed bytes of a printed row, by decade index.

    head[i]: bytes 0-7 of a row below 1 in fixed notation ("0.00" at bytes
    1-4 for k = -3), else 0; tail[i]: bytes 24-31 in exponent notation
    ("e-05"), else 0; moves[k]: the byte order that puts a row's point after
    digit k, for k = 0..16.
    """
    def words(texts):
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype="<u8")

    decades = range(_K_MIN, 310)
    head = words([b"\0" + b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in decades])
    tail = words([f"e{k:+03d}".encode() if not -4 <= k < 17 else b"" for k in decades])
    moves = np.array([[*range(7), *range(8, 8 + k), 7, *range(8 + k, 32)] for k in range(17)])
    return _read_only(head, tail, moves)


def _decimal(x):
    """(i, d, unsure) for positive finite x: the decade index, the 17-digit
    integer x * 10^(16-k) rounded half-even (10^17 rounds to 10^16 in the
    next decade), and where that rounding is open."""
    lower, e10, power, decade = _decade_tables()
    mant, e = np.frexp(x)
    i = decade[e + 1073]
    i += x >= lower[i + 1]
    a = np.ldexp(mant, e - e10[i] + 53).astype(_U)  # exact: 53 bits, under 2^57
    del mant, e
    # a * P by 29-bit columns, leaving out a0 * p0 (bits 0-57): column c
    # sums the products of limbs i + j = c and the carry from column c - 1
    a0 = a & _LOW29
    a1 = a
    a1 >>= _LIMB
    p1 = power[1][i]
    c1 = a0 * p1
    c1 += a1 * power[0][i]
    p2 = power[2][i]
    c2 = a0 * p2
    c2 += a1 * p1
    c2 += c1 >> _LIMB
    del p1
    p3 = power[3][i]
    c3 = a0 * p3
    c3 += a1 * p2
    c3 += c2 >> _LIMB
    # bits 116 and up hold the integer part d, the 64 bits below it the
    # fraction f; the truncations leave x * 10^(16-k) in
    # [d + f/2^64, d + (f + 129)/2^64), so the rounding is open only for f
    # within 128 below 2^63, where exact ties land, or at 2^63
    d = a1 * p3
    d += c3 >> _LIMB
    del a0, a1, p2, p3
    f = c3
    f &= _LOW29
    f <<= _U(35)
    f |= (c2 & _LOW29) << _U(6)
    f |= (c1 & _LOW29) >> _U(23)
    del c1, c2
    d += f > _U(2**63)
    carry = d == _U(10**17)  # rounded up into the next decade
    d[carry] = _U(10**16)
    i += carry
    return i, d, f - _U(2**63 - 128) <= _U(128)


def _print_chunk(values, out):
    """Write '%.17g' % v, NUL-padded, into the row of out, a (len, 4) '<u8' array.

    Bytes 0-7 hold the sign, the "0.000" of fixed notation below 1, the
    leading digit and the point; bytes 8-23 the other 16 digits as four
    groups, trailing zeros as NUL; bytes 24-31 the exponent.
    """
    head, tail, moves = _row_words()
    digits = _digit_words()
    x = np.abs(values)
    zero = x == 0
    x[zero] = 0.5  # any nonzero value; zero rows are rewritten below
    i, d, unsure = _decimal(x)
    del x
    lead = d // _U(10**16)
    d -= lead * _U(10**16)
    fixed = head[i]
    out[:, 0] = (fixed | np.signbit(values) * _U(ord("-")) | (lead + _U(ord("0"))) << _U(48)
                 | ((d != 0) & (fixed == 0)) * _U(ord(".") << 56))
    out[:, 3] = tail[i]
    del lead, fixed
    # a group loses its trailing zeros when the groups after it are zero
    quads = out.view("<u4")
    strip = np.full(len(d), _U(20000))
    for column in (5, 4, 3, 2):
        rest = d // _U(10**4)
        group = d - rest * _U(10**4)
        quads[:, column] = digits[group + strip]
        strip *= group == 0
        d = rest
    out[zero] = 0
    out[zero, 0] = np.signbit(values[zero]) * _U(ord("-")) | _U(ord("0") << 48)
    rows = out.view(np.uint8)
    # from 1 to 10^17 the point follows digit k, and only the fraction loses
    # its trailing zeros
    big = np.flatnonzero((i >= -_K_MIN) & (i <= 16 - _K_MIN))
    if big.size:
        k = i[big] + _K_MIN
        sub = rows[big]
        sub[:, 8:24][(sub[:, 8:24] == 0) & (np.arange(1, 17) <= k[:, None])] = ord("0")
        sub[:, 7] = (sub[np.arange(len(big)), 8 + k] != 0) * ord(".")
        rows[big] = np.take_along_axis(sub, moves[k], axis=1)
    for r in np.flatnonzero(unsure & ~zero).tolist():
        text = b"%.17g" % values[r]
        rows[r] = 0
        rows[r, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _chunks(count: int):
    """(lo, hi) ranges that split count rows into equal passes of at most _CHUNK."""
    passes = -(-count // _CHUNK)
    return [(count * j // passes, count * (j + 1) // passes) for j in range(passes)]


def _float_rows(values) -> np.ndarray:
    """(len, 32) uint8 rows, row r the bytes of '%.17g' % values[r], then NULs.

    A value that is not finite raises format_float's error, naming the first.
    """
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[~finite][0])
    out = np.empty((len(values), _FLOAT_WIDTH // 8), dtype="<u8")
    for lo, hi in _chunks(len(values)):
        _print_chunk(values[lo:hi], out[lo:hi])
    return out.view(np.uint8)


def _ranked_rows(header: str, one_lines, values=None) -> str:
    r"""header, then the line "{r},{one_lines[r]},{values[r]}\n" for each rank r.

    The values may be absent. One-line entries are single digits (n <= 9),
    printed space-separated. Rows are built at most _CHUNK at a time as
    fixed-width byte rows: the rank's leading zeros and the float's padding
    are NUL, and one translate per chunk drops them.
    """
    count, n = one_lines.shape
    groups = -(-len(str(max(count - 1, 0))) // 4)  # 4-digit groups of a rank
    fields = [b"\0" * 4 * groups, b" ".join([b"\0"] * n)]
    if values is not None:
        fields.append(b"\0" * _FLOAT_WIDTH)
    template = np.frombuffer(b",".join(fields) + b"\n", dtype=np.uint8)
    cells, floats = 4 * groups + 1, len(template) - 1 - _FLOAT_WIDTH
    digits = _digit_words()
    parts = [header]
    for lo, hi in _chunks(count):
        # printed first, so the printer's temporaries are gone before the rows exist
        printed = None if values is None else _float_rows(values[lo:hi])
        text = bytearray((hi - lo) * len(template))
        rows = np.frombuffer(text, dtype=np.uint8).reshape(hi - lo, len(template))
        rows[:] = template
        # a rank's groups lose their leading zeros up to its first nonzero group
        ranks = np.arange(lo, hi, dtype=_U)
        leading = np.full(hi - lo, _U(10000))
        words = np.empty((hi - lo, groups), dtype="<u4")
        for j in range(groups - 1, -1, -1):
            scale = _U(10**(4 * j))
            group = ranks // scale
            ranks -= group * scale
            words[:, groups - 1 - j] = digits[group + leading]
            leading *= group == 0
        rows[:, :4 * groups] = words.view(np.uint8)
        if lo == 0:
            rows[0, 4 * groups - 1] = ord("0")
        rows[:, cells:cells + 2 * n:2] = one_lines[lo:hi] + ord("0")
        if printed is not None:
            rows[:, floats:-1] = printed
            del printed
        parts.append(text.translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _write_json(obj) -> str:
    # bool is an int subclass; test it first
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        # exact rationals travel as strings, never as lossy floats
        return json.dumps(str(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        body = ", ".join(
            f"{json.dumps(str(key))}: {_write_json(value)}"
            for key, value in obj.items()
        )
        return "{" + body + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def partition_key(lam: Partition) -> str:
    return "[" + ",".join(str(part) for part in lam.parts) + "]"


def spectrum_to_json(spectrum: FourierSpectrum) -> str:
    """{"normalization": ..., "blocks": {"[3,1]": [[a, b, c], ...], ...}}.

    One printer call covers the values; each block takes the next d * d
    printed entries, each followed by its separator, ", ", "], [" or "]]",
    NUL-padded to 4 bytes.
    """
    floats = _float_rows(spectrum.values)
    parts = ['{"normalization": %s, "blocks": {' % json.dumps(spectrum.normalization)]
    for lam, block in spectrum.blocks.items():
        text = bytearray(block.size * (_FLOAT_WIDTH + 4))
        entries = np.frombuffer(text, dtype=np.uint8).reshape(*block.shape, _FLOAT_WIDTH + 4)
        entries[..., :_FLOAT_WIDTH] = floats[:block.size].reshape(*block.shape, _FLOAT_WIDTH)
        floats = floats[block.size:]
        entries[:, :-1, _FLOAT_WIDTH:] = np.frombuffer(b", \0\0", dtype=np.uint8)
        entries[:, -1, _FLOAT_WIDTH:] = np.frombuffer(b"], [", dtype=np.uint8)
        entries[-1, -1, _FLOAT_WIDTH:] = np.frombuffer(b"]]\0\0", dtype=np.uint8)
        parts.append('%s"%s": [[%s' % (", " if len(parts) > 1 else "", partition_key(lam),
                                       text.translate(None, b"\0").decode("ascii")))
    del floats, entries, text  # before the parts are joined
    parts.append("}}\n")
    return "".join(parts)


def function_from_csv(text: str) -> np.ndarray:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [cell.strip() for cell in rows[0]] != ["rank", "value"]:
        raise ValueError("expected a rank,value header")
    body = rows[1:]
    count = len(body)
    try:
        function_degree(np.empty(count))
    except ValueError:
        raise ValueError(
            f"{count} rows is not a factorial, so no degree fits"
        ) from None
    out = np.empty(count)
    seen = np.zeros(count, dtype=bool)
    for row in body:
        if len(row) != 2:
            raise ValueError(f"malformed row {row!r}")
        rank = int(row[0])
        if not 0 <= rank < count or seen[rank]:
            raise ValueError(f"rank {rank} out of range or repeated")
        seen[rank] = True
        out[rank] = float(row[1])
    return out


def posterior_to_csv(posterior) -> str:
    arr = np.asarray(posterior, dtype=np.float64)
    return _ranked_rows("rank,one_line,probability\n", all_one_lines(function_degree(arr)), arr)


def samples_to_csv(draws) -> str:
    """One "draw,one_line" row per row of a (count, n) array of one-line forms."""
    rows = np.asarray(draws)
    check_degree(rows.shape[1])
    return _ranked_rows("draw,one_line\n", rows)


def partition_samples_to_csv(draws) -> str:
    lines = ["draw,partition"]
    for index, lam in enumerate(draws):
        lines.append(f"{index}," + " ".join(str(part) for part in lam.parts))
    return "\n".join(lines) + "\n"


def fourier_distribution_to_json(exact: dict) -> str:
    n = next(iter(exact)).weight
    ordered = {partition_key(lam): exact[lam] for lam in enumerate_partitions(n)}
    return _write_json(ordered) + "\n"


def fourier_distribution_to_csv(exact: dict) -> str:
    n = next(iter(exact)).weight
    rows = [f"{' '.join(map(str, lam.parts))},{format_float(exact[lam])}"
            for lam in enumerate_partitions(n)]
    return "\n".join(["partition,probability", *rows]) + "\n"


def ledger_to_jsonl(ledger) -> str:
    return "".join(_write_json(entry) + "\n" for entry in ledger)


def report_to_json(plan: ExperimentPlan, report: RunReport) -> str:
    doc = {
        "n": plan.n,
        "encoding": plan.encoding,
        "seed": plan.seed,
        "steps": len(plan.steps),
        "p_total": report.p_total,
        "lower_bound": report.lower_bound,
        "lower_bound_note": report.lower_bound_note,
        "amplification": {
            mode: dict(cost._asdict())
            for mode, cost in report.amplification.items()
        },
    }
    return _write_json(doc) + "\n"


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build(path: str, cls, **fields):
    """Build a plan-model object; its error's field goes under the document path."""
    try:
        return cls(**fields)
    except PlanValidationError as err:
        raise err.under(path) from None


def _tagged(doc, path: str, tag: str, shapes: dict) -> str:
    """Check a JSON object's tag, then its keys against that tag's shape."""
    if not isinstance(doc, dict):
        raise PlanValidationError(path, "expected a JSON object")
    kind = doc.get(tag)
    if not isinstance(kind, str) or kind not in shapes:
        raise PlanValidationError(f"{path}.{tag}", f"{tag} must be {'|'.join(shapes)}")
    for key in doc:
        if key != tag and key not in shapes[kind]:
            raise PlanValidationError(f"{path}.{key}", f"unknown field for {kind}")
    return kind


def _int_array(raw, path: str) -> tuple:
    # json.loads builds exact types, so an int type, not a bool, is a plain int
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
        raise PlanValidationError(path, "expected an array of integers")
    return tuple(raw)


_OBSERVATION_SHAPES = {
    "assignment": ("s", "indices", "values"),
    "ranking": ("s", "items"),
}
_STEP_SHAPES = {"diffusion": ("p", "d"), "conditioning": ("observation",)}


def _parse_observation(doc, path: str) -> Observation:
    kind = _tagged(doc, path, "kind", _OBSERVATION_SHAPES)
    s = doc.get("s", 1.0)
    if not _plain_number(s):
        raise PlanValidationError(f"{path}.s", "expected a number")
    pools = {
        key: _int_array(raw, f"{path}.{key}")
        for key, raw in doc.items() if key not in ("kind", "s")
    }
    return _build(path, Observation, kind=kind, s=s, **pools)


def _parse_step(doc, path: str):
    if _tagged(doc, path, "type", _STEP_SHAPES) == "conditioning":
        return _parse_observation(doc.get("observation"), f"{path}.observation")
    p = doc.get("p")
    if isinstance(p, str):
        # a string like "1/3" or "0.3" requests exact rational arithmetic
        try:
            p = Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise PlanValidationError(
                f"{path}.p", f"cannot read {p!r} as an exact fraction"
            ) from None
    elif not _plain_number(p):
        raise PlanValidationError(f"{path}.p", "expected a number or a fraction string")
    d = doc.get("d", 1)
    if not _plain_int(d):
        raise PlanValidationError(f"{path}.d", "expected an integer")
    return _build(path, DiffusionStep, p=p, d=d)


def _parse_initial(doc):
    if not isinstance(doc, dict):
        return doc  # "identity", or a value the plan model rejects
    _tagged(doc, "initial", "kind", {"empirical": ("dataset",)})
    dataset = doc.get("dataset")
    if not isinstance(dataset, list):
        raise PlanValidationError("initial.dataset", "expected an array")
    entries = []
    for i, item in enumerate(dataset):
        path = f"initial.dataset[{i}]"
        if not isinstance(item, dict) or set(item) != {"one_line", "count"}:
            raise PlanValidationError(path, "expected an object of one_line and count")
        if not _plain_int(item["count"]):
            raise PlanValidationError(f"{path}.count", "expected an integer")
        one_line = _int_array(item["one_line"], f"{path}.one_line")
        entries.append((one_line, item["count"]))
    return _build("initial", EmpiricalInitial, entries=tuple(entries))


_PLAN_FIELDS = (
    "n", "encoding", "seed", "initial", "steps", "sharpening",
    "amplitude_empirical_ok",
)


def plan_from_json(text: str) -> ExperimentPlan:
    """Decode a plan document; errors name the offending field."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # also an integer literal beyond int's digit limit
        raise PlanValidationError("document", f"not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise PlanValidationError("document", "plan must be a JSON object")
    for key in doc:
        if key not in _PLAN_FIELDS:
            raise PlanValidationError(key, "unknown field")
    n = doc.get("n")
    if not _plain_int(n):
        raise PlanValidationError("n", "an integer degree is required")
    seed = doc.get("seed", 0)
    if not _plain_int(seed):
        raise PlanValidationError("seed", "expected an integer")
    sharpening = doc.get("sharpening")
    if sharpening is not None and not _plain_int(sharpening):
        raise PlanValidationError("sharpening", "expected an integer")
    opt_in = doc.get("amplitude_empirical_ok", False)
    if not isinstance(opt_in, bool):
        raise PlanValidationError("amplitude_empirical_ok", "expected a boolean")
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise PlanValidationError("steps", "expected an array")
    return ExperimentPlan(
        n=n,
        steps=tuple(_parse_step(item, f"steps[{i}]") for i, item in enumerate(steps)),
        encoding=doc.get("encoding", "amplitude"),
        initial=_parse_initial(doc.get("initial", "identity")),
        seed=seed,
        sharpening=sharpening,
        amplitude_empirical_ok=opt_in,
    )
