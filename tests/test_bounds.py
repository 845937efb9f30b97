from fractions import Fraction

import pytest

from artinlab.bounds import (
    BoundParams,
    FORMULA_IDS,
    cross_check_bound,
    evaluate_bound,
)
from artinlab.errors import PrecondError


def test_catalog_reference_values():
    assert evaluate_bound("cor48_artin", BoundParams(max_ord=2), 5) == 16
    assert evaluate_bound("lem66", BoundParams(n=2, i_I=1, c=0), 4) == 6
    assert evaluate_bound("prop74", BoundParams(a=2, n=1, t=1), 10) == 5


def test_more_catalog_values():
    assert evaluate_bound("lin31", BoundParams(i_I=2), 7) == 9
    assert evaluate_bound("thm45", BoundParams(a=1, b=0, nu_x=3, i_I=1), 2) == 6
    assert evaluate_bound("ex433", BoundParams(nu_x=2, ord_g=3), 4) == 9
    assert evaluate_bound("ex434", BoundParams(n=2, nu_x=1), 3) == 5
    assert evaluate_bound("prop72", BoundParams(n=2, i_I=1, c=0), 4) == 7
    assert evaluate_bound("prop73", BoundParams(n=2, t=1, i_I=1, i_Jn=2, c=0), 4) == 9
    # doubling structure: floor(log2 3) = 1, so (2a)^2 scales the base level
    assert evaluate_bound("lem64", BoundParams(a=1, b=1, n=3, i_P=0, i_I=1), 2) == 15
    assert evaluate_bound("prop43i", BoundParams(a=2, b=1, nu_x=1, i_I=1), 3) == 11
    assert evaluate_bound("prop43ii", BoundParams(a=1, c=1, b=0, i_I=2), 3) == 12


def _grid_params(fid):
    return {
        "prop43i": [BoundParams(a=a, b=b, nu_x=v, i_I=k) for a in (1, 2) for b in (0, 2) for v in (0, 1) for k in (0, 1)],
        "prop43ii": [BoundParams(a=a, c=c, b=b, i_I=k) for a in (1, 2) for c in (0, 1) for b in (0, 1) for k in (0, 1)],
        "thm45": [BoundParams(a=a, b=b, nu_x=v, i_I=k) for a in (1, 2) for b in (0, 1) for v in (0, 2) for k in (0, 1)],
        "cor48_artin": [BoundParams(max_ord=m) for m in (1, 2, 3)],
        "ex433": [BoundParams(nu_x=v, ord_g=g) for v in (0, 1) for g in (2, 3)],
        "ex434": [BoundParams(n=n, nu_x=v) for n in (1, 2) for v in (0, 1)],
        "lem64": [BoundParams(a=a, b=b, n=n, i_P=p, i_I=k) for a in (1, 2) for b in (0, 1) for n in (1, 2, 3) for p in (0, 1) for k in (0, 1)],
        "lem66": [BoundParams(n=n, i_I=k, c=c) for n in (1, 2, 3) for k in (0, 1) for c in (0, 1)],
        "prop72": [BoundParams(n=n, i_I=k, c=c) for n in (1, 2) for k in (0, 1) for c in (0, 1)],
        "prop73": [BoundParams(n=n, t=t, i_I=k, i_Jn=j, c=c) for n in (1, 2) for t in (1, 2) for k in (0, 1) for j in (0, 1) for c in (0, 1)],
        "prop74": [BoundParams(a=a, n=n, t=t) for a in (1, 2) for n in (1, 2) for t in (1, 2)],
        "lin31": [BoundParams(i_I=k) for k in (0, 1, 3)],
    }[fid]


def test_every_formula_monotone_in_i():
    for fid in FORMULA_IDS:
        for params in _grid_params(fid):
            values = [evaluate_bound(fid, params, i) for i in range(51)]
            assert values == sorted(values), (fid, params)


def test_lem66_dominated_by_prop72():
    for n in (1, 2, 3, 5):
        for i_I in (0, 1, 2):
            for c in (0, 1, Fraction(3, 2)):
                p = BoundParams(n=n, i_I=i_I, c=c)
                for i in range(101):
                    assert evaluate_bound("lem66", p, i) <= evaluate_bound("prop72", p, i)


def test_prop43i_degenerates_to_lin31():
    for i_I in (0, 1, 2):
        for i in range(30):
            a = evaluate_bound("prop43i", BoundParams(a=1, b=0, nu_x=0, i_I=i_I), i)
            b = evaluate_bound("lin31", BoundParams(i_I=i_I), i)
            assert a == b


def test_missing_parameter_is_named():
    with pytest.raises(PrecondError, match="i_I"):
        evaluate_bound("lem66", BoundParams(n=2, c=0), 4)
    with pytest.raises(PrecondError, match="max_ord"):
        evaluate_bound("cor48_artin", BoundParams(), 1)
    with pytest.raises(PrecondError, match="unknown formula"):
        evaluate_bound("nope", BoundParams(), 1)
    with pytest.raises(PrecondError, match="divides by n"):
        evaluate_bound("lem66", BoundParams(n=0, i_I=1, c=0), 4)
    with pytest.raises(PrecondError, match="divides by t"):
        evaluate_bound("prop74", BoundParams(a=1, n=2, t=0), 4)


def test_param_validation():
    with pytest.raises(PrecondError):
        BoundParams(a=Fraction(1, 2))
    with pytest.raises(PrecondError):
        BoundParams(b=-1)
    with pytest.raises(PrecondError):
        BoundParams(n=-2)


def test_cross_check_flags_exceedances():
    # quadratic growth escapes any affine candidate eventually
    points = [(i, i * i - 1) for i in range(1, 8)]
    rep = cross_check_bound("lin31", BoundParams(i_I=3), points)
    assert not rep.ok
    assert rep.exceedances
    assert "no affine bound" in rep.note
    ok_rep = cross_check_bound("lin31", BoundParams(i_I=1), [(i, i + 1) for i in range(5)])
    assert ok_rep.ok and not ok_rep.exceedances
