"""The lemma suite's word-batched digit draw against one randrange per digit.

`harness._random_digits` must return the digits `rng.randrange(base)`
would return, one call per digit, and leave the generator in the same
state, so the suite checks the same samples as the per-digit loop.  Both
are run on equal generators, through sequences of draws of both classes
and of randint calls, and compared on values and on rng.getstate() after
every step.  The base-27 reserved scan is compared with a per-digit scan.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrips.digits import BinaryString, TernaryString
from exactrips.harness import _random_digits, _reserved_twos

from oracles import randrange_digits, reserved_twos

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

CLASSES = {"ternary": TernaryString, "binary": BinaryString}

depths = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 80), st.integers(301, 700))
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(CLASSES)), depths),
        st.tuples(st.just("randint"), st.integers(0, 300)),
    ),
    min_size=1,
    max_size=8,
)


@SETTINGS
@given(st.integers(0, 2**64), steps)
@example(0, [("ternary", 0), ("binary", 0)])
@example(1, [("ternary", 1), ("binary", 1), ("randint", 6)])
@example(2, [("ternary", 300), ("randint", 72), ("binary", 301), ("ternary", 640)])
@example(3, [("ternary", 641), ("binary", 1281)])
@example(4, [("ternary", 4301)])  # past int()'s default 4300-digit limit
def test_draw_matches_randrange_stream(seed, step_list):
    fast, slow = random.Random(seed), random.Random(seed)
    for kind, n in step_list:
        if kind == "randint":
            assert fast.randint(0, n) == slow.randint(0, n)
        else:
            cls = CLASSES[kind]
            s = _random_digits(fast, cls, n)
            assert type(s) is cls and s.depth == n
            assert s.digits == randrange_digits(slow, cls.base, n)
        assert fast.getstate() == slow.getstate()


def test_depth_zero_draws_nothing():
    rng = random.Random(5)
    before = rng.getstate()
    for cls in CLASSES.values():
        s = _random_digits(rng, cls, 0)
        assert (s.value, s.depth) == (0, 0)
    assert rng.getstate() == before


def test_rejected_words_are_redrawn():
    # A draw long enough to reject words of both classes in its first round
    # still ends on the stream's own word.
    for cls in CLASSES.values():
        fast, slow = random.Random(11), random.Random(11)
        assert _random_digits(fast, cls, 400).digits == randrange_digits(
            slow, cls.base, 400
        )
        assert fast.getstate() == slow.getstate()
        # 400 digits cost more than 400 words: some were rejected.
        first_round = random.Random(11)
        first_round.getrandbits(32 * 400)
        assert first_round.getstate() != fast.getstate()


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
    assert _reserved_twos(s, blocks) == reserved_twos(tuple(digits), blocks)
