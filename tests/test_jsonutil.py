"""dumps_canonical's empty object and its type errors."""

import pytest

from bfixpoint.jsonutil import dumps_canonical


def test_empty_object():
    assert dumps_canonical({}) == "{}"
    assert dumps_canonical({"a": {}}) == '{\n  "a": {}\n}'


@pytest.mark.parametrize(
    "obj, message",
    [
        ({1: 2.0}, "^JSON object keys must be strings, got 1$"),
        ({"a": [1, {2.0}]}, r"^cannot serialize set: \{2.0\}$"),
    ],
)
def test_what_json_cannot_hold_is_a_type_error(obj, message):
    with pytest.raises(TypeError, match=message):
        dumps_canonical(obj)
