"""Run one dynpois command in this fresh interpreter and report on it.

    python perfbench/child.py REPORT TRACE -- <dynpois arguments>

It does what ``python -m dynpois`` does (``dynpois.cli.run_command`` on the
arguments, exit with its code) and also keeps the PosteriorDraws each fitter
returns, so the ESS of forecast and compare chains can be scored; the CLI
writes no diagnostics for those. With TRACE=1 it also records spans around
the public functions of every layer (see tracing.py) and writes them to
REPORT with ``.spans.npz`` in place of ``.json``. REPORT gets the exit code,
per-fit ESS and, when traced, the per-span summary.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import tracing


def _fit_record(draws, diagnostics, beta_path: bool) -> dict:
    diag = diagnostics(draws)
    record = {"variant": draws.variant, "retained": int(draws.S),
              "ess_min": float(diag.ess.min()), "acceptance_rate": float(draws.acceptance_rate)}
    if beta_path and draws.beta.ndim == 3:
        # score every (month, coefficient) of the path with the package's own
        # estimator by presenting the path as S draws of T*p static coefficients
        S, T, p = draws.beta.shape
        flat = type(draws)(beta=draws.beta.reshape(S, T * p), gamma=None,
                           acceptance_rate=draws.acceptance_rate,
                           beta_names=tuple(f"t{t}_{n}" for t in range(T) for n in draws.beta_names))
        record["beta_path_ess_min"] = float(diagnostics(flat).ess.min())
    return record


def main(argv: list) -> int:
    report_path, trace, sep, *command = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py REPORT TRACE(0|1) -- <dynpois arguments>")
    import dynpois.cli
    from dynpois import mcmc

    expected_src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if expected_src not in Path(dynpois.cli.__file__).resolve().parents:
        raise SystemExit(f"imported dynpois from {dynpois.cli.__file__}, not from {expected_src}")
    diagnostics = mcmc.diagnostics

    fits = []
    for name in ("fit_dm_static", "fit_bpm", "fit_dm5"):
        original = getattr(mcmc, name)

        def keep(*args, _fit=original, **kwargs):
            draws = _fit(*args, **kwargs)
            fits.append(draws)
            return draws

        tracing.rebind(original, keep)

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        rebound = tracer.install()
    code, _ = dynpois.cli.run_command(command)

    report = {"exit_code": code}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["trace"]["rebound"] = rebound
        tracer.write_spans(str(Path(report_path).with_suffix(".spans.npz")))
    report["fits"] = [_fit_record(d, diagnostics, beta_path=tracer is not None) for d in fits]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
