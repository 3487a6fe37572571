import prnukit
import prnukit.matching


def test_all_is_sorted_unique_and_resolves():
    names = prnukit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(prnukit, name), name
    # the brute-force correlation oracle lives in tests/oracles.py
    assert not hasattr(prnukit.matching, "cross_correlate_direct")
