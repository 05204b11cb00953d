"""Property tests of the CLI's canonical JSON (optional: needs hypothesis)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitkit import cli  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
# text() draws from all of Unicode but the surrogates: non-ASCII letters,
# control characters, U+2028 and astral characters all occur
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8)
# the keys of one dict are all of one kind, or of mixed kinds, which json
# cannot always sort: then both sides must raise the same error
_KEYS = [
    st.text(max_size=6),
    st.integers() | st.booleans() | _FLOATS,
    st.none(),
    st.text(max_size=3) | st.integers() | st.none(),
]


def _containers(items):
    """Lists, tuples and dicts of ``items``, empty ones included."""
    return st.one_of(
        st.lists(items, max_size=6),
        st.lists(items, max_size=6).map(tuple),
        *(st.dictionaries(keys, items, max_size=6) for keys in _KEYS),
    )


_JSON = st.recursive(_SCALARS, _containers, max_leaves=12)


@st.composite
def _reused(draw):
    """A value whose containers are drawn from a pool, so one list or dict
    object sits in it many times, at more than one depth."""
    pool = draw(st.lists(_containers(_JSON), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        picks = st.sampled_from(pool)
        pool += draw(st.lists(_containers(picks), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))


def _outcome(encode, x):
    try:
        return encode(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _reference(x):
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _nested(depth):
    x = []
    for k in range(depth):
        x = {"k": x} if k % 2 else [x]
    return x


_ROW = [{"im": "0", "re": "0"}] * 5


@SETTINGS
@hypothesis.given(_JSON | _reused())
@hypothesis.example([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324])
@hypothesis.example({"é": "ünïcödé", " ": "\x00\x1f", "😀": ["퟿", ""]})
@hypothesis.example({1: "a", 2.5: "b", False: "c", float("nan"): "d"})
@hypothesis.example({None: {-1: []}})
@hypothesis.example({1: "a", "1": "b"})
@hypothesis.example([[], {}, (), [[]], {"": {}}])
@hypothesis.example(_nested(200))
@hypothesis.example({"mult": [[_ROW] * 5] * 5, "star": [_ROW, _ROW[:2], (_ROW[0],)]})
def test_canonical_text_is_json_dumps(x):
    assert _outcome(cli._canonical, x) == _outcome(_reference, x)
