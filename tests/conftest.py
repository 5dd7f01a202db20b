import pytest

# rewrite the asserts in the oracles too, so their checks survive python -O
pytest.register_assert_rewrite("oracles")

import hypothesis

hypothesis.settings.register_profile("exact", deadline=None)
hypothesis.settings.load_profile("exact")
