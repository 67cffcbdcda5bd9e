"""Record the digests that check answers with no independent reference.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json: for every entry of the generators' finite
domains, the digest of the isomorphism-invariant form of model_homology(n,
cap) and of the sorted (degree, height, ascii word) rows of
enumerate_words(p, r, max_degree).  Run it only on a commit whose answers
are trusted; the file in the repository was recorded on the commit that
introduced the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import canon
import workloads
from periodindex.complexes import model_homology
from periodindex.words import enumerate_words, format_word


def model_digest(n: int, cap: int) -> str:
    return canon.digest(canon.group_form(model_homology(n, cap).to_json()))


def words_digest(p: int, r: int, max_degree: int) -> str:
    rows = sorted((deg, ht, format_word(w, ascii_symbols=True))
                  for w, deg, ht in enumerate_words(p, r, max_degree))
    return canon.digest(rows)


def main() -> None:
    digests = {
        "model": {f"{n}/{cap}": model_digest(n, cap) for n, cap in workloads.MODEL_DOMAIN},
        "homology": {f"{n}/{cap}": model_digest(n, cap)
                     for n, cap in workloads.CLI_HOMOLOGY_DOMAIN},
        "words": {f"{p}/{r}/{deg}": words_digest(p, r, deg)
                  for p, r, deg in workloads.WORDS_DOMAIN},
    }
    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {path}")


if __name__ == "__main__":
    main()
