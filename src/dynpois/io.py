"""CSV ingestion and report emission.

All numeric report cells use 17-significant-digit formatting so values
round-trip through parsing; reruns with the same seed must produce
byte-identical files, so nothing time- or environment-dependent is written.
"""

from __future__ import annotations

import csv
import json
import math
import re
from io import StringIO
from pathlib import Path

import numpy as np

from .model import CountSeries


# Number text as CSV writers produce it: ASCII digits, an optional sign,
# fraction and exponent, and blanks around it. int() and float() also take
# digit separators ("1_000"), the digits of other scripts and "nan"/"inf".
_INTEGER_TEXT = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_DECIMAL_TEXT = re.compile(r"[ \t]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[ \t]*")


class ValidationError(ValueError):
    """Malformed input data or configuration; carries a row number when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file, with its line endings as written and without
    one leading byte-order mark; a file that is not UTF-8 raises
    ValidationError naming it as ``what``."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{what} {str(path)!r} is not UTF-8 text ({exc.reason})"
            ) from None


def ingest_csv(path) -> tuple:
    """Parse a cohort CSV into a count series plus named covariate columns.

    Requires a UTF-8 file with a header with ``month_index`` (consecutive
    1-based integers) and ``count`` (nonnegative integers below 2**63, see
    ``_parse_count``); every remaining column is a covariate and must be
    finite numeric. Numbers are ASCII decimal or float notation. Row numbers
    in errors count data rows from 1.
    """
    with StringIO(read_text(path, "data file"), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("file is empty") from None
        header = [h.strip() for h in header]
        for required in ("month_index", "count"):
            if required not in header:
                raise ValidationError(f"missing required column {required!r}")
        if len(set(header)) != len(header):
            raise ValidationError("duplicate column names in header")
        month_col = header.index("month_index")
        count_col = header.index("count")
        cov_names = [h for h in header if h not in ("month_index", "count")]
        cov_idx = [header.index(h) for h in cov_names]

        counts = []
        covariates = {name: [] for name in cov_names}
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValidationError(
                    f"expected {len(header)} cells, found {len(row)}", row=row_no
                )
            _check_month(row[month_col], row_no)
            counts.append(_parse_count(row[count_col], row_no))
            for name, idx in zip(cov_names, cov_idx):
                covariates[name].append(_parse_covariate(row[idx], name, row_no))

    if not counts:
        raise ValidationError("file contains a header but no data rows")
    series = CountSeries(np.array(counts))
    return series, {name: np.array(vals) for name, vals in covariates.items()}


def _check_month(cell: str, row_no: int) -> None:
    """Data row ``row_no`` must have month_index ``row_no``."""
    if not _INTEGER_TEXT.fullmatch(cell):
        raise ValidationError(f"month_index {cell!r} is not an integer", row=row_no)
    value = int(cell)
    if value != row_no:
        raise ValidationError(
            f"month_index {value} breaks the consecutive sequence (expected {row_no})",
            row=row_no,
        )


def _parse_count(cell: str, row_no: int) -> int:
    """An integer count read exactly: integer text by ``int``, float notation
    (``5.0``, ``1e3``) only below 2**53, where reading it as a float is exact."""
    if not _DECIMAL_TEXT.fullmatch(cell):
        raise ValidationError(f"count {cell!r} is not an ASCII decimal number", row=row_no)
    if _INTEGER_TEXT.fullmatch(cell):
        value = int(cell)
    else:
        number = float(cell)
        if not number.is_integer():
            raise ValidationError(f"count {cell!r} is not an integer", row=row_no)
        if abs(number) >= 2**53:
            raise ValidationError(f"count {cell!r} in float notation is not exact at 2**53 or above",
                                  row=row_no)
        value = int(number)
    if value < 0:
        raise ValidationError(f"count {value} is negative", row=row_no)
    if value >= 2**63:
        raise ValidationError(f"count {cell!r} does not fit a 64-bit integer", row=row_no)
    return value


def _parse_covariate(cell: str, name: str, row_no: int) -> float:
    if not _DECIMAL_TEXT.fullmatch(cell):
        raise ValidationError(f"covariate {name!r} value {cell!r} is not an ASCII decimal number", row=row_no)
    value = float(cell)
    if not math.isfinite(value):
        raise ValidationError(f"covariate {name!r} is not finite", row=row_no)
    return value


def format_number(x) -> str:
    """Fixed 17-significant-digit decimal rendering (round-trips exactly in float64)."""
    if x is None:
        return "NA"
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(cell) if not isinstance(cell, str) else cell for cell in row])


def write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def summary_csv_rows(summary_rows: list) -> tuple:
    header = ["parameter", "q25", "mean", "q75", "sd"]
    rows = [[r["parameter"], r["q25"], r["mean"], r["q75"], r["sd"]] for r in summary_rows]
    return header, rows


def fit_csv_rows(observed: np.ndarray, theta_draws: np.ndarray) -> tuple:
    """Per-month smoothed-rate quantiles against the observed counts."""
    header = ["t", "observed", "theta_mean", "theta_q2.5", "theta_q97.5"]
    mean = theta_draws.mean(axis=0)
    lo, hi = np.percentile(theta_draws, [2.5, 97.5], axis=0)
    rows = [
        [t + 1, int(observed[t]), mean[t], lo[t], hi[t]] for t in range(len(observed))
    ]
    return header, rows


def forecast_csv_rows(report) -> tuple:
    header = ["origin", "actual", "point", "lo95", "hi95"]
    rows = []
    for i, origin in enumerate(report.origins):
        lo = report.lower[i] if report.lower is not None else None
        hi = report.upper[i] if report.upper is not None else None
        rows.append([origin, report.actuals[i], report.points[i], lo, hi])
    return header, rows


def diagnostics_csv_rows(diag) -> tuple:
    header = ["parameter", "mean", "sd", "lag1_autocorr", "ess"]
    rows = [
        [diag.names[i], diag.means[i], diag.sds[i], diag.autocorr[i, 1], diag.ess[i]]
        for i in range(len(diag.names))
    ]
    return header, rows


def forecast_report_payload(report) -> dict:
    """The metrics of a forecast report, plus its per-origin weight
    efficiencies and refit origins when its origins reweight draws."""
    payload = {
        "model": report.model,
        "mape": report.mape,
        "rmse": report.rmse,
        "mcov": report.mcov,
        "mwid": report.mwid,
        "origins": list(report.origins),
        "skipped_zero_months": list(report.skipped_zero_months),
        "flags": list(report.flags),
    }
    if report.refit_origins is not None:
        payload["weight_efficiency"] = list(report.weight_efficiency)
        payload["refit_origins"] = list(report.refit_origins)
    return payload


def comparison_payload(report) -> dict:
    return {
        "log_marginal_likelihood": dict(report.log_marginal_likelihood),
        "log_cpo": dict(report.log_cpo),
        "log_bayes_factors": {m1: dict(v) for m1, v in report.log_bayes_factors.items()},
    }
