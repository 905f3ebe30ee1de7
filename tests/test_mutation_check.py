"""Every mutant of tests/mutation_check.py still applies to the current source.

Running the mutants takes about half a minute and is left to the script; this
check only keeps a refactor from leaving a mutant behind unnoticed.
"""

import mutation_check


def test_every_mutant_old_text_occurs_once():
    assert mutation_check.check_texts() == []


def test_every_mutant_names_test_files_that_exist():
    for m in mutation_check.MUTANTS:
        for test in m.tests:
            assert (mutation_check.ROOT / test.partition("::")[0]).is_file(), (m.name, test)
