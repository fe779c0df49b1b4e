import pytest

from f2sets.fuzz import fuzz_sfnotround, qualifying_sum_free_sets
from f2sets.search import canonical_form


def test_sfnotround_families_filter_the_smallest_kappa():
    out = fuzz_sfnotround()
    assert out["family_sizes"] == {"r5_kappa2": 8, "r5_kappa3": 6,
                                   "r6_kappa2": 133, "r6_kappa3": 89}
    assert out["checked_sets"] == 8 + 6 + 133 + 89
    assert out["violations"] == []
    for r in (5, 6):
        family = qualifying_sum_free_sets(r, 2)
        floor = (1 << (r - 2)) + 3
        assert qualifying_sum_free_sets(r, 3) == [S for S in family if len(S) > floor]


def test_qualifying_sets_exist_at_ranks_two_to_six_only():
    assert qualifying_sum_free_sets(2, 2) == []
    for r in (0, 1, 7, 9):
        with pytest.raises(ValueError, match="ranks 2 to 6"):
            qualifying_sum_free_sets(r, 2)


def test_rank6_five_point_deletions_are_one_class():
    # At kappa 2 the rank-6 list holds the 20 one-point deletions of the
    # 20-point five-point set, all in one linear class: 133 sets, 114 classes.
    family = qualifying_sum_free_sets(6, 2)
    five_point, deletions = family[-21], family[-20:]
    assert len(five_point) == 20
    assert {five_point.without_element(x) for x in five_point} == set(deletions)
    assert len({canonical_form(S, "linear").set for S in deletions}) == 1
