"""Check the CSV number text (wta.csvtext) against Python's '%.17g' % v on a
corpus of doubles, and exit 1 on any mismatch.

    PYTHONPATH=src python tests/csv_corpus.py [RANDOM_VALUES]

The corpus (corpus()): seeded random 64-bit patterns, so every exponent,
sign and subnormal; uniform values in [0, 1); every power of 2 and of 10
in the double range with its two neighbours, and their negatives; odd
multiples of 0.25 in [1e15, 2.25e15], each an exact tie at the 17th
digit; +-0, +-inf and nan. With the default 2,500,000 random patterns it
holds about 4.1 million values and takes about 10 s on 2 vCPUs (Python
3.11.7, numpy 2.4.6), most of it Python's own formatting.

Pytest does not collect this file; tests/test_integrate.py imports it and
runs a smaller corpus in tier-1.
"""

import sys

import numpy as np


def corpus(random_values: int, seed: int = 0) -> np.ndarray:
    """The corpus of the docstring, with random_values random bit patterns
    and half as many uniform values; NaN patterns among the random bits
    stay (Python writes every NaN as nan)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, random_values, dtype=np.uint64, endpoint=False)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    neighbours = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    # odd multiples of 0.25 from 1e15: 16 integer digits, then .25 or .75
    ties = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, random_values // 8) + 1) * 0.25
    parts = [bits.view(np.float64), rng.random(random_values // 2), *neighbours,
             -np.concatenate(neighbours), ties,
             np.array([0.0, -0.0, np.inf, -np.inf, np.nan])]
    return np.concatenate(parts)


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, expected, got) for each value whose text differs from
    '%.17g' % value."""
    from wta import csvtext

    got = b"".join(chunk.tobytes() for chunk in csvtext.body([values])).decode().split("\n")
    want = ["%.17g" % v for v in values.tolist()]
    if len(got) != len(want) + 1:
        return [(float("nan"), f"{len(want)} lines", f"{len(got) - 1} lines")]
    return [(v, w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]


def main(argv) -> int:
    values = corpus(int(argv[0]) if argv else 2_500_000)
    bad = mismatches(values)
    for v, want, got in bad[:20]:
        print(f"{v!r}: want {want}, got {got}")
    print(f"{len(bad)} mismatches in {values.size} values")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
