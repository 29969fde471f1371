"""One set-up sample: a fresh process's imports and dataset resolution.

Usage: python3 setup_probe.py <src_dir> <dataset_spec> <seed>

Prints the seconds from this script's first statement until pretraining
could begin: the imports a pretrain + probe session needs (NumPy
included) and ``datasets.resolve_dataset``. Interpreter start-up and the
cost of spawning the process are left out: amimv cannot change them, and
on a small shared machine they only add noise.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, spec, seed = sys.argv[1:4]
    sys.path.insert(0, src)
    from amimv import datasets, evaluation, trainer  # noqa: F401  (imported as a session would)

    datasets.resolve_dataset(spec, seed=int(seed))
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
