import math

import numpy as np
import pytest

from semidim import BorelSetSpec, cantor, interval, time_set, union


class TestDimensions:
    def test_interval(self):
        assert interval(0.0, 1.0).hausdorff_dim == 1.0
        assert interval(0.2, 0.7).hausdorff_dim == 1.0
        assert interval(0.3, 0.3).hausdorff_dim == 0.0

    def test_cantor_self_similarity_oracle(self):
        # oracle: m pieces of ratio r have dimension log m / log(1/r)
        assert cantor(2, 1 / 3).hausdorff_dim == pytest.approx(math.log(2) / math.log(3))
        assert cantor(3, 1 / 5).hausdorff_dim == pytest.approx(math.log(3) / math.log(5))
        assert cantor(2, 0.5).hausdorff_dim == pytest.approx(1.0)

    def test_union_max(self):
        u = union(cantor(2, 1 / 3), interval(0.0, 0.1))
        assert u.hausdorff_dim == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            interval(-0.1, 0.5)
        with pytest.raises(ValueError):
            interval(0.5, 0.2)
        with pytest.raises(ValueError):
            cantor(2, 0.6)  # m*r > 1
        with pytest.raises(ValueError):
            cantor(1, 0.3)


class TestMask:
    def test_interval_mask(self):
        t = np.linspace(0.0, 1.0, 11)
        mask = interval(0.25, 0.75).mask(t)
        assert mask.sum() == 5  # 0.3, 0.4, 0.5, 0.6, 0.7

    def test_middle_thirds_level_one(self):
        t = np.array([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
        mask = cantor(2, 1 / 3).mask(t, level=1)
        # level-1 pieces are [0, 1/3] and [2/3, 1]
        assert mask.tolist() == [True, True, False, False, False, True, True]

    def test_cover_point_counts(self):
        n = 16
        t = np.arange(2**n + 1) / 2**n
        for level in (3, 5, 7):
            got = cantor(2, 1 / 3).mask(t, level=level).sum()
            want = 2**level * (3.0**-level) * 2**n  # pieces x points per piece
            assert abs(got - want) / want < 0.05

    def test_union_mask(self):
        t = np.linspace(0.0, 1.0, 101)
        u = union(interval(0.0, 0.095), interval(0.905, 1.0))
        assert u.mask(t).sum() == 20


class TestTimeSet:
    def test_every_form(self, tmp_path):
        spec = interval(0.0, 0.5)
        path = tmp_path / "b.json"
        path.write_text(spec.to_json())
        assert time_set(None) == interval(0.0, 1.0)
        assert time_set("cantor") == cantor(2, 1 / 3)
        assert time_set(spec) is spec
        assert time_set(str(path)) == spec
        assert time_set(spec.to_json()) == spec


class TestSerialization:
    def test_round_trip(self):
        for spec in (interval(0.1, 0.9), cantor(3, 0.2), union(cantor(2, 1 / 3), interval(0, 0.5))):
            again = BorelSetSpec.from_json(spec.to_json())
            assert again == spec
