"""Rebuild committed records rows from ``tests/oracles.py`` and numpy alone.

    python tests/reference_rows.py reference/phase_transition.cfg \
        reference/phase_transition_records.csv

Each row of the records file is trained again by ``oracles.cell`` on the
config's synthetic blobs, at the row's alpha, sigma1, width and seed.
Its d and n, and its gap and i_hat as the records writer prints them
(17 significant digits, so bit for bit), must be the committed ones;
its g_hat must be within 1e-12 relative of the committed one (the
oracle's P(alpha) takes math.lgamma, the package its own log-Gamma, so
the last bits may differ). Prints each row that differs and the count
reproduced; exits 1 if any row differs. The config must set every key
read here, as the committed reference configs do. No ``levybound`` code
runs, so a fault that the package and its tests share cannot pass.

``tests/test_reference_rows.py`` runs a few rows in the tier-1 suite;
CI runs every row of both committed records files (about 100 s on one
core).
"""

import csv
import math
import sys
import time
from types import SimpleNamespace

import oracles

G_HAT_RTOL = 1e-12


def read_config(path):
    """A flat key=value file; a line that starts with '#' is a comment."""
    cfg = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    return cfg


def mismatches(config_path, records_path, keep=lambda row: True):
    """The rows of ``records_path`` that ``keep`` picks (a dict of field
    texts) and the oracles do not reproduce, one message each, and the
    number of rows checked."""
    cfg = read_config(config_path)
    dims, classes = int(cfg["input_dim"]), int(cfg["classes"])
    train, test = oracles.blobs(int(cfg["n_per_class"]), dims, classes,
                                float(cfg["separation"]), float(cfg["noise_std"]),
                                int(cfg["data_seed"]))
    batch = cfg["batch_size"]
    run = dict(gamma=float(cfg["gamma"]), eta=float(cfg["eta"]), sigma2=float(cfg["sigma2"]),
               steps=int(cfg["steps"]), eval_interval=int(cfg["eval_interval"]),
               batch_size=None if batch == "full" else int(batch))
    with open(records_path, encoding="utf-8", newline="") as f:
        rows = [row for row in csv.DictReader(f) if keep(row)]
    errors = []
    for row in rows:
        alpha, sigma1, width = float(row["alpha"]), float(row["sigma1"]), int(row["width"])
        widths = (dims, width, classes) if width else (dims, classes)
        d, n = sum(a * b for a, b in zip(widths[:-1], widths[1:])), train[1].size
        cell_cfg = SimpleNamespace(alpha=alpha, sigma1=sigma1, **run)
        got = oracles.cell(widths, train, test, cell_cfg, float(cfg["init_scale"]),
                           int(row["seed"]), int(cfg["window"]), float(cfg["trim"]))
        want = {"d": str(d), "n": str(n), "diverged": "false" if got else "true"}
        g_hat = math.nan
        if got:
            want["gap"], want["i_hat"] = (format(v, ".17g") for v in got)
            if sigma1 > 0.0:
                g_hat = oracles.g_hat(alpha, d, n, sigma1, float(cfg["R"]), got[1])
        wrong = [f"{key} {row[key]} (oracle {value})" for key, value in want.items()
                 if row[key] != value]
        committed = float(row["g_hat"])
        if not (math.isclose(g_hat, committed, rel_tol=G_HAT_RTOL)
                or math.isnan(g_hat) and math.isnan(committed)):
            wrong.append(f"g_hat {row['g_hat']} (oracle {g_hat!r})")
        if wrong:
            cell = ", ".join(f"{key}={row[key]}" for key in ("alpha", "sigma1", "width", "seed"))
            errors.append(f"{cell}: " + "; ".join(wrong))
    return errors, len(rows)


def main(argv):
    config_path, records_path = argv
    start = time.perf_counter()
    errors, count = mismatches(config_path, records_path)
    for error in errors:
        print(error)
    print(f"{count - len(errors)} of {count} rows of {records_path} reproduced "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if errors or not count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
