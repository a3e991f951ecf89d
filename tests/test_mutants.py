"""The mutant catalogue of ``mutants.py`` still matches the source: each
old text occurs exactly once in the package, in the file the mutant
names, and each mutant changes it and names test files that exist.  The
mutants themselves run outside tier-1 (``python tests/mutants.py``)."""

from pathlib import Path

import pytest

from mutants import MUTANTS, PACKAGE, apply

TESTS = Path(__file__).resolve().parent


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once_in_the_package(mutant):
    counts = {path.name: path.read_text(encoding="utf-8").count(mutant.old)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_names_its_test_files(mutant):
    assert mutant.tests
    assert all((TESTS / name).is_file() for name in mutant.tests)


def test_apply_edits_only_the_copy(tmp_path):
    mutant = MUTANTS[0]
    copy = tmp_path / "src" / "qclifford" / mutant.file
    copy.parent.mkdir(parents=True)
    original = (PACKAGE / mutant.file).read_text(encoding="utf-8")
    copy.write_text(original, encoding="utf-8")
    apply(mutant, tmp_path)
    edited = copy.read_text(encoding="utf-8")
    assert edited == original.replace(mutant.old, mutant.new) != original
    assert (PACKAGE / mutant.file).read_text(encoding="utf-8") == original
    with pytest.raises(ValueError, match="does not occur once"):
        apply(mutant, tmp_path)
