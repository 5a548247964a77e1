"""The committed differential (``tests/differential.py``) stays runnable:
its smallest corpus gives the same hash twice on the working tree."""

import differential


def test_the_work_corpus_hashes_the_same_on_two_runs(tmp_path):
    src = differential.ROOT / "src"
    first, second = (differential.run_corpus(src, "work", tmp_path / f"work.{k}.jsonl")
                     for k in (0, 1))
    assert first == second and first[1] == 5
    assert (tmp_path / "work.0.jsonl").read_bytes() == (tmp_path / "work.1.jsonl").read_bytes()
