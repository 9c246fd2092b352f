"""Fit fingerprint: the exact bits of a fixed set of fits, cross-validations
and one Table-1 batch, one line each, and a comparison of two such files.

    PYTHONPATH=src python tests/fingerprint.py OUT [--small] [--threads N]
    python tests/fingerprint.py --compare A B

The package is the one on PYTHONPATH, so the same command run against two
checkouts, then `--compare`, shows whether a change moved any bit and, if
so, by how much. Each line is one JSON object, floats as float hex:

- kind "fit": tlamm and ilamm at lasso c=0.45, scad c=0.65 and mcp c=0.85
  (lambda = c sqrt(log p / n)) on four designs drawn with seed 11:
  300x2400 independent, 200x100 independent, 200x100 constant correlation
  0.5 and 120x30 autoregressive 0.5. The line holds beta, stage1_beta,
  iterations, converged, status, the stage exits and every TraceRecord.
- kind "cv": cross_validate on the acceptance tuning set (n=200, p=100,
  data seed 101, fold seed 5; lasso, scad and mcp) and on four inputs of
  the benchmark's cv_tune shape (n=200, p=100, data and fold seed k for k
  = 0..3, scad and mcp in turn): criteria, statuses and the pick.
- kind "table1": each method's cell medians of one two-rep Table-1 batch
  (n=300, p=2400, seed 909, c as above), wall-clock seconds left out.

`--small` runs the same kinds at small shapes in a few seconds. No digest
is pinned anywhere: the bits depend on the BLAS build, so only files made
on one machine compare. `--threads` sets the process pool of the CV and
Table-1 runs, which must not change a bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

C_BY_PENALTY = {"lasso": 0.45, "scad": 0.65, "mcp": 0.85}
# acceptance criterion 04's L2 bands (n=300, p=2400); a median's move is
# reported as a share of its band's width
L2_BANDS = {"oracle": (0.19, 0.39), "tlamm-mcp": (0.19, 0.49), "tlamm-scad": (0.21, 0.51)}
MEDIAN_KEYS = ("l2", "tp", "fp", "sens", "spec", "iters1", "iters2")

# designs as (tlammcox.data class name, its arguments, n, p)
FULL = {
    "designs": [("Independent", (), 300, 2400), ("Independent", (), 200, 100),
                ("ConstantCorrelation", (0.5,), 200, 100),
                ("Autoregressive", (0.5,), 120, 30)],
    "cv": {"n": 200, "p": 100, "c_grid": None},
    "table1": {"n": 300, "p": 2400},
}
SMALL = {
    "designs": [("Independent", (), 80, 60), ("Independent", (), 60, 20),
                ("ConstantCorrelation", (0.5,), 60, 20), ("Autoregressive", (0.5,), 50, 12)],
    "cv": {"n": 60, "p": 10, "c_grid": [0.3, 0.6, 0.9]},
    "table1": {"n": 60, "p": 40},
}


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _fit_lines(shape):
    from tlammcox import SimulationConfig, SolverConfig, data, ilamm, simulate_dataset, tlamm
    from tlammcox.errors import DataError, SolverError
    from tlammcox.evaluation import scaled_lambda
    from tlammcox.penalties import PenaltySpec
    for cls, args, n, p in shape["designs"]:
        design = getattr(data, cls)(*args)
        dataset, _ = simulate_dataset(SimulationConfig(n=n, p=p, design=design, seed=11))
        for algo in (tlamm, ilamm):
            for kind, c in C_BY_PENALTY.items():
                line = {"kind": "fit", "id": f"{design.name}-{n}x{p}/{algo.__name__}-{kind}"}
                try:
                    fit = algo(dataset, PenaltySpec(kind, scaled_lambda(c, n, p)), SolverConfig())
                except (SolverError, DataError) as exc:
                    line["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    line.update(
                        beta=_hex(fit.beta), stage1_beta=_hex(fit.stage1_beta),
                        iterations=list(fit.iterations), converged=list(fit.converged),
                        status=fit.status, exits=[w.exit for w in fit.trace.work],
                        trace=[[float.hex(v) if isinstance(v, float) else v for v in r]
                               for r in fit.trace.records])
                yield line


def _cv_lines(shape, threads):
    from tlammcox import SimulationConfig, cross_validate, simulate_dataset
    n, p, c_grid = shape["cv"]["n"], shape["cv"]["p"], shape["cv"]["c_grid"]
    inputs = [(f"acceptance/{kind}", 101, 5, kind) for kind in ("lasso", "scad", "mcp")]
    inputs += [(f"cv_tune/{k}-{kind}", k, k, kind)
               for k, kind in enumerate(("scad", "mcp", "scad", "mcp"))]
    for name, data_seed, fold_seed, kind in inputs:
        dataset, _ = simulate_dataset(SimulationConfig(n=n, p=p, seed=data_seed))
        res = cross_validate(dataset, kind, c_grid=c_grid, seed=fold_seed, threads=threads)
        yield {"kind": "cv", "id": name, "c_grid": _hex(res.c_grid),
               "criteria": _hex(res.criteria), "statuses": [list(s) for s in res.statuses],
               "chosen_c": float.hex(res.chosen_c), "fold_seed": res.fold_seed}


def _table1_lines(shape, threads):
    from tlammcox import SolverConfig
    from tlammcox.evaluation import METHODS, ExperimentGrid, run_experiment
    grid = ExperimentGrid(n_values=(shape["table1"]["n"],), p_values=(shape["table1"]["p"],),
                          methods=METHODS, reps=2, seed=909, c_by_penalty=C_BY_PENALTY)
    for cell in run_experiment(grid, SolverConfig(), threads=threads).cell_medians:
        yield {"kind": "table1", "id": cell["method"],
               "median": {k: float.hex(cell["median"][k]) for k in MEDIAN_KEYS
                          if k in cell["median"]},
               **{k: cell[k] for k in ("reps_ok", "reps_failed", "reps_nonconverged")}}


def fingerprint_lines(small=False, threads=1):
    """Every fingerprint line, in a fixed order. Only this imports the
    package, so --compare runs without it."""
    shape = SMALL if small else FULL
    return [json.dumps(line, sort_keys=True, separators=(",", ":"))
            for part in (_fit_lines(shape), _cv_lines(shape, threads),
                         _table1_lines(shape, threads))
            for line in part]


# ------------------------------------------------------------- comparison

def _load(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    entries = {}
    for text in raw.decode("utf-8").splitlines():
        line = json.loads(text)
        entries[line["kind"], line["id"]] = line
    return hashlib.sha256(raw).hexdigest(), entries


def _floats(values):
    return [float.fromhex(v) for v in values]


def _sup_gap(a, b):
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(_floats(a), _floats(b))), default=0.0)


def compare(path_a, path_b):
    """Report lines on how file B differs from file A."""
    digest_a, a = _load(path_a)
    digest_b, b = _load(path_b)
    out = [f"sha256 A {digest_a}", f"sha256 B {digest_b}",
           "files identical" if digest_a == digest_b else "files differ"]
    only = sorted(set(a) ^ set(b))
    out += [f"only in {'A' if key in a else 'B'}: {key[0]} {key[1]}" for key in only]
    common = [key for key in a if key in b]

    fits = [key for key in common if key[0] == "fit"]
    same = sum(a[key] == b[key] for key in fits)
    out.append(f"fits: {same} of {len(fits)} lines identical")
    worst = {"beta": (0.0, None), "stage1_beta": (0.0, None)}
    for key in fits:
        fa, fb = a[key], b[key]
        if "error" in fa or "error" in fb:
            if fa.get("error") != fb.get("error"):
                out.append(f"  {key[1]}: error {fa.get('error')!r} -> {fb.get('error')!r}")
            continue
        for field in worst:
            gap = _sup_gap(fa[field], fb[field])
            if gap > worst[field][0]:
                worst[field] = (gap, key[1])
        for field in ("iterations", "converged", "status", "exits"):
            if fa[field] != fb[field]:
                out.append(f"  {key[1]}: {field} {fa[field]} -> {fb[field]}")
    for field, (gap, where) in worst.items():
        out.append(f"largest sup-norm gap in {field}: {gap:.3g}"
                   + (f" ({where})" if where else ""))

    cvs = [key for key in common if key[0] == "cv"]
    same = sum(a[key] == b[key] for key in cvs)
    out.append(f"cv: {same} of {len(cvs)} lines identical")
    for key in cvs:
        ca, cb = a[key], b[key]
        crit_a, crit_b = _floats(ca["criteria"]), _floats(cb["criteria"])
        if crit_a != crit_b:
            rel = max(abs(x - y) / max(abs(x), 1e-300) for x, y in zip(crit_a, crit_b))
            out.append(f"  {key[1]}: criteria move by up to {rel:.3g} relative")
        if ca["statuses"] != cb["statuses"]:
            out.append(f"  {key[1]}: fold statuses changed")
        pick_a, pick_b = float.fromhex(ca["chosen_c"]), float.fromhex(cb["chosen_c"])
        out.append(f"  {key[1]}: pick {pick_a:.2f}"
                   + (" unchanged" if pick_a == pick_b else f" -> {pick_b:.2f} CHANGED"))

    for key in (key for key in common if key[0] == "table1"):
        ma, mb = a[key]["median"], b[key]["median"]
        moves = []
        for k in MEDIAN_KEYS:
            if k in ma and k in mb:
                move = float.fromhex(mb[k]) - float.fromhex(ma[k])
                if not move:
                    continue
                if k == "l2" and key[1] in L2_BANDS:
                    lo, hi = L2_BANDS[key[1]]
                    moves.append(f"l2 {move:+.3g} ({move / (hi - lo):+.2%} of its band)")
                else:
                    moves.append(f"{k} {move:+.3g}")
        out.append(f"table1 {key[1]}: " + (", ".join(moves) or "no median moved"))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="file to write the fingerprint lines to")
    parser.add_argument("--small", action="store_true", help="small shapes, a few seconds")
    parser.add_argument("--threads", type=int, default=1,
                        help="process pool of the CV and Table-1 runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="report how fingerprint file B differs from A")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in fingerprint_lines(args.small, args.threads))
    else:
        parser.error("give OUT or --compare A B")


if __name__ == "__main__":
    main()
