"""The lemma suite's word stream against one call per draw on the generator.

`harness._WordStream(seed)` reads the 32-bit words of random.Random(seed)
in bulk.  Every draw must return what the same call returns on the
generator itself: `below(n)` what `randrange(n)` returns, `lo + below(hi
- lo + 1)` what `randint(lo, hi)` returns, and `digits(cls, d)` the d
digits of d calls of `randrange(cls.base)`.  Both are run on equal
generators through mixed sequences of draws and compared value by value,
and one draw of 3d digits is compared with three draws of d, as the
suite's ultrametric triples read it.
The stream draws words ahead of the last one it reads, so the two
generators' states differ and are not compared; an equal next value after
every draw shows that each draw read the words the call would, no more
and no fewer.  embedding.reserved_twos, the suite's base-27 reserved
scan, is compared with a per-digit scan.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips import embedding
from exactrips.digits import BinaryString, TernaryString
from exactrips.harness import _WordStream

from oracles import randrange_digits, reserved_twos

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

CLASSES = {"ternary": TernaryString, "binary": BinaryString}
# One word in its top byte (k <= 8), in all 32 bits, and two words (k = 33).
BOUNDS = [1, 2, 13, 72, 255, 256, 257, 2**32]

depths = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 80), st.integers(301, 700))
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(CLASSES)), depths),
        st.tuples(st.just("below"), st.one_of(st.sampled_from(BOUNDS), st.integers(1, 2**70))),
        st.tuples(st.just("randint"), st.integers(0, 300)),
    ),
    min_size=1,
    max_size=10,
)


def _same_draw(stream, rng, kind, n):
    if kind == "below":
        assert stream.below(n) == rng.randrange(n)
    elif kind == "randint":
        assert 1 + stream.below(n + 1) == rng.randint(1, n + 1)
    else:
        cls = CLASSES[kind]
        s = stream.digits(cls, n)
        assert type(s) is cls and s.depth == n
        assert s.digits == randrange_digits(rng, cls.base, n)


@SETTINGS
@given(st.integers(0, 2**64), steps)
@example(0, [("ternary", 0), ("binary", 0), ("below", 1)])
@example(1, [("ternary", 1), ("binary", 1), ("randint", 6)])
@example(2, [("ternary", 300), ("randint", 72), ("binary", 301), ("ternary", 640)])
@example(3, [("ternary", 641), ("binary", 1281)])
@example(4, [("ternary", 4301)])  # past int()'s default 4300-digit limit, and REFILL
@example(5, [("below", n) for n in BOUNDS] * 3)
@example(6, [("below", 2**32), ("binary", 3), ("below", 2**64 + 1), ("ternary", 5)])
# The draw ends at word 4094; below(13) rejects word 4095, the buffer's
# last (top byte 211), and reads its next word after the refill.
@example(2, [("ternary", 3077), ("below", 13)])
def test_draw_matches_randrange_stream(seed, step_list):
    stream, rng = _WordStream(seed), random.Random(seed)
    for kind, n in step_list + [("below", 2**32)]:  # the next word agrees too
        _same_draw(stream, rng, kind, n)


def test_randrange_bounds_over_many_draws():
    # Each bound's rejections, over enough draws (at least one word each)
    # to cross at least one refill.
    for n in BOUNDS:
        stream, rng = _WordStream(n), random.Random(n)
        buf = stream._buf
        assert [stream.below(n) for _ in range(5000)] == [rng.randrange(n) for _ in range(5000)]
        assert stream._buf is not buf


@SETTINGS
@given(
    st.integers(0, 2**64),
    st.sampled_from(sorted(CLASSES)),
    st.one_of(st.integers(0, 80), st.integers(200, 700)),
)
@example(0, "ternary", 0)
@example(4, "ternary", 1500)  # 4500 digits: past REFILL
@example(5, "binary", 256)
def test_one_draw_of_three_thirds_is_three_draws(seed, kind, d):
    cls = CLASSES[kind]
    whole, thirds = _WordStream(seed), _WordStream(seed)
    s = whole.digits(cls, 3 * d)
    head, third = divmod(s.value, cls.base**d)
    assert [*divmod(head, cls.base**d), third] == [thirds.digits(cls, d).value for _ in range(3)]
    assert whole.below(2**32) == thirds.below(2**32)


def test_depth_zero_draws_nothing():
    for cls in CLASSES.values():
        stream, rng = _WordStream(5), random.Random(5)
        for _ in range(3):
            s = stream.digits(cls, 0)
            assert (type(s), s.value, s.depth) == (cls, 0, 0)
        assert stream.digits(TernaryString, 9).digits == randrange_digits(rng, 3, 9)


def test_draw_straddles_a_refill():
    # A draw that starts `left` words before the end of the buffer reads
    # those words first, then fresh ones; below(2**32) takes two words.
    for left, kind, n in [(40, "ternary", 60), (40, "binary", 60), (1, "ternary", 60),
                          (0, "binary", 60), (1, "below", 2**32), (0, "below", 1)]:
        stream, rng = _WordStream(17), random.Random(17)
        skip = len(stream._buf) // 4 - left
        stream._pos = skip
        rng.getrandbits(32 * skip)
        buf = stream._buf
        _same_draw(stream, rng, kind, n)
        assert stream._buf is not buf  # the draw refilled
        _same_draw(stream, rng, "below", 2**32)


def test_rejected_words_are_redrawn():
    # 400 digits cost more than 400 words: some were rejected, and the
    # draw still ends on the word that gave its last digit.
    for cls in CLASSES.values():
        stream, rng = _WordStream(11), random.Random(11)
        assert stream.digits(cls, 400).digits == randrange_digits(rng, cls.base, 400)
        assert stream._pos > 400
        assert stream.below(2**32) == rng.randrange(2**32)


@SETTINGS
@given(st.integers(1, 60).flatmap(
    lambda blocks: st.tuples(
        st.just(blocks), st.lists(st.integers(0, 2), min_size=3 * blocks, max_size=3 * blocks)
    )
))
@example((1, [0, 0, 2]))
@example((2, [2, 2, 0, 1, 1, 2]))
def test_reserved_scan_matches_per_digit_scan(case):
    blocks, digits = case
    s = TernaryString(digits)
    assert embedding.reserved_twos(s, blocks) == reserved_twos(tuple(digits), blocks)
