import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from symbreak.harness import CorpusSpec, enumerate_corpus

REPO_ROOT = Path(__file__).resolve().parent.parent
ORDER7_CORPUS = REPO_ROOT / "data" / "connected_order7.g6"


@pytest.fixture(scope="session")
def corpus():
    """Connected isomorphism classes keyed by order, 1..6, computed once."""
    return {
        n: enumerate_corpus(CorpusSpec(min_order=n, max_order=n)) for n in range(1, 7)
    }


@pytest.fixture(scope="session")
def order7_path():
    assert ORDER7_CORPUS.exists(), (
        f"{ORDER7_CORPUS} is missing; it is a frozen file in the repository "
        "(the README shows how to rebuild it)"
    )
    return str(ORDER7_CORPUS)
