import doctest

import pytest

from forgottenmonoid import forgotten, perms, qsym, verify, words


@pytest.mark.parametrize("module", [perms, forgotten, words, qsym, verify])
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
