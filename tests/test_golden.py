"""The golden corpus: every run digest in golden.json, on both kernel paths.

A failure here means the output of some (scene, method, config) changed.
See make_golden.py for what is digested and when the file may be rebuilt.
"""

import json

import pytest

from make_golden import GOLDEN, METHODS, SCENES, corpus

EXPECTED = json.loads(GOLDEN.read_text(encoding="ascii"))


def test_corpus_covers_every_case():
    keys = {key.rsplit("/", 4)[0] for key in EXPECTED}
    assert keys == {f"{s}/{m}" for s in SCENES for m in METHODS}
    assert len(EXPECTED) == len(SCENES) * 48


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", SCENES)
def test_digests_unchanged(scene, method, cap_walk, tmp_path):
    got = corpus(scene, method, tmp_path)
    want = {k: v for k, v in EXPECTED.items()
            if k.startswith(f"{scene}/{method}/")}
    assert got == want
