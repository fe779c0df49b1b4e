from f2sets.fuzz import fuzz_sfnotround, qualifying_sum_free_sets


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
