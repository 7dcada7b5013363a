"""Randomized agreement between the validator and a brute-force oracle."""

import pytest

from mmods.axioms import catalog
from mmods.validate import materialize, validate
from mmods.vocab import VocabularyRegistry

from oracles import finding_counter, naive_materialize, oracle_findings, random_vocab_graph

SEEDS = range(1000)


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def cat(reg):
    return catalog(reg)


def test_validator_agrees_with_oracle_on_random_graphs(reg, cat):
    mismatches = []
    seen_codes = set()
    total = 0
    for seed in SEEDS:
        g = random_vocab_graph(seed, reg)
        strict = seed % 4 == 0
        got = finding_counter(validate(g, cat, reg, infer=False, strict=strict))
        want = oracle_findings(g, cat, reg, strict=strict)
        if got != want:
            mismatches.append((seed, got - want, want - got))
        seen_codes.update(code for code, _, _ in want)
        total += sum(want.values())
    assert not mismatches, mismatches[:3]
    # The corpus has to actually exercise the rules for agreement to mean
    # anything.
    assert total > 1000
    assert len(seen_codes) >= 15


def test_validator_agrees_with_oracle_after_inference(reg, cat):
    for seed in range(0, 1000, 5):
        g = random_vocab_graph(seed, reg)
        got = finding_counter(validate(g, cat, reg))
        want = oracle_findings(naive_materialize(g, cat), cat, reg)
        assert got == want, f"seed {seed}"


def test_oracle_corpus_covers_every_error_code(reg, cat):
    # Which error rules fire at least once across the corpus; the targeted
    # mutation tests cover the remainder one by one.
    seen = set()
    for seed in SEEDS:
        seen.update(
            code for code, sev, _ in oracle_findings(random_vocab_graph(seed, reg), cat, reg)
            if sev == "error"
        )
    error_codes = {c.code for c in cat if c.severity == "error"}
    assert len(seen & error_codes) >= 15
