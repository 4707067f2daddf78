"""The digests of tools/fingerprint.py: they repeat on one tree, and a changed
template character changes its tokenization keys and those downstream of
them, and no other."""

import importlib.util
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

KEYS = ({f"{part}.{tpl}" for part in ("tokenize", "prompt", "collate")
         for tpl in ("plain", "llava_v1", "gemma_like")}
        | {f"preprocess_image.{size}.{aspect}" for size in (16, 32) for aspect in ("square", "pad")}
        | {f"{w}.{part}" for w in ("train_text", "train_align")
           for part in ("params", "grads", "losses")}
        | {"load_ppm", "generate.fit_losses", "generate.answers", "errors.messages"})
# llava_v1 is the default template, so the train_text and generate models train on it.
LLAVA_KEYS = {"tokenize.llava_v1", "prompt.llava_v1", "collate.llava_v1", "train_text.params",
              "train_text.grads", "train_text.losses", "generate.fit_losses"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two fingerprints of this tree and one of a copy whose llava_v1 system
    message starts with "a", not "A"; two run at a time."""
    copy = tmp_path_factory.mktemp("tree")
    for part in ("src", "bench"):
        shutil.copytree(REPO / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    templates = copy / "src" / "vlmkit" / "data" / "templates.py"
    text = templates.read_text(encoding="utf-8")
    assert text.count('("A chat between') == 1
    templates.write_text(text.replace('("A chat between', '("a chat between'), encoding="utf-8")
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fingerprint.fingerprint, [REPO, REPO, copy]))


def test_two_runs_on_one_tree_give_equal_digests(runs):
    first, second, _ = runs
    assert set(first) == KEYS
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in first.values())
    assert first == second
    assert fingerprint.differing(first, second) == []


def test_a_changed_template_character_changes_its_keys_and_those_downstream(runs):
    first, _, changed = runs
    differ = set(fingerprint.differing(first, changed))
    # The answers are text the fitted model chooses, which may come out the same.
    assert LLAVA_KEYS <= differ <= LLAVA_KEYS | {"generate.answers"}


def test_differing_names_keys_one_side_lacks():
    assert fingerprint.differing({"a": "1", "b": "2", "c": "3"},
                                 {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
