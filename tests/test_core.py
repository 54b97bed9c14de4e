import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld import core
from gaussworld.core import EMPTY, ClassConfig, GaussianScene, prune, quat_normalize, quat_to_rot, scene_confidences
from gaussworld.flow import Waypoint, apply_flow, ego_transform
from gaussworld.grid import GridSpec, voxel_centers
from gaussworld.splat import SplatParams, evidence_field
from tests.conftest import random_scene
from tests.oracles import class_field_at, covariance, label_at

QUAT_90Z = (math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))


# with one class the field is the bare kernel value exp(-½·q)
CFG1 = ClassConfig(1)
UNCUT = ClassConfig(1, mahalanobis_cutoff=1e3)


def unit_gaussian(mean=(0, 0, 0), logits=(0.0,)):
    """A one-Gaussian scene with unit scales and no rotation."""
    return GaussianScene(mean, (0, 0, 0), (1, 0, 0, 0), logits, tuple(f"c{i}" for i in range(len(logits))))


class TestCovariance:
    def test_identity_case(self):
        assert np.allclose(covariance((0, 0, 0), (1, 0, 0, 0)), np.eye(3))

    def test_axis_aligned_scaling(self):
        got = covariance((math.log(2), 0, 0), (1, 0, 0, 0))
        assert np.allclose(got, np.diag([4.0, 1.0, 1.0]))

    def test_rotated_matches_explicit_product(self):
        # oracle: explicit R·S·Sᵀ·Rᵀ with the 90°-about-z rotation matrix
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        S = np.diag([2.0, 1.0, 1.0])
        expected = R @ S @ S.T @ R.T
        got = covariance((math.log(2), 0, 0), QUAT_90Z)
        assert np.allclose(got, expected)
        assert np.allclose(got, np.diag([1.0, 4.0, 1.0]))

    def test_spd_and_eigenvalues(self, rng):
        for _ in range(20):
            ls = rng.uniform(-2, 2, 3)
            q = rng.normal(size=4)
            cov = covariance(ls, q)
            assert np.allclose(cov, cov.T)
            eig = np.sort(np.linalg.eigvalsh(cov))
            assert np.allclose(eig, np.sort(np.exp(2 * ls)), rtol=1e-9, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            covariance((np.nan, 0, 0), (1, 0, 0, 0))


class TestDensity:
    def test_peak_at_mean(self):
        assert class_field_at(unit_gaussian(), (0, 0, 0), CFG1)[0] == 1.0

    def test_unit_offset(self):
        assert class_field_at(unit_gaussian(), (1, 0, 0), CFG1)[0] == pytest.approx(math.exp(-0.5))

    def test_matches_dense_inverse_oracle(self, rng):
        for _ in range(20):
            mean, ls, q = rng.normal(size=3), rng.uniform(-1, 1, 3), rng.normal(size=4)
            scene = GaussianScene(mean, ls, q, (0.0,), ("c0",))
            x = rng.normal(size=3)
            d = x - mean
            m2 = d @ np.linalg.inv(covariance(ls, q)) @ d
            assert class_field_at(scene, x, UNCUT)[0] == pytest.approx(math.exp(-0.5 * m2), rel=1e-9)

    def test_kernel_matches_dense_inverse_oracle(self, rng):
        spec = GridSpec((-2, -2, -2), (8, 8, 8), 0.5)
        centers = voxel_centers(spec)
        for _ in range(10):
            mean, ls, q = rng.normal(size=3), rng.uniform(-1, 1, 3), rng.normal(size=4)
            scene = GaussianScene(mean, ls, q, (0.0,), ("c0",))
            F, _ = evidence_field(scene, spec, SplatParams(CFG1))
            d = centers - mean
            m2 = np.einsum("vi,ij,vj->v", d, np.linalg.inv(covariance(ls, q)), d)
            # a voxel whose m2 lies within rounding of κ² = 9 may fall on either side of the cutoff
            sure = np.abs(m2 - 9.0) > 1e-9
            want = np.where(m2 <= 9.0, np.exp(-0.5 * m2), 0.0)
            assert np.allclose(F[sure, 0], want[sure], rtol=1e-9, atol=0.0)

    def test_cutoff(self):
        g = unit_gaussian()
        assert class_field_at(g, (5, 0, 0), CFG1)[0] == 0.0
        assert class_field_at(g, (2, 0, 0), CFG1)[0] > 0.0

    def test_rotation_consistency(self, rng):
        # rotating both the gaussian and the query leaves the value unchanged
        from gaussworld.core import quat_multiply, quat_normalize

        for _ in range(10):
            mean, ls = rng.normal(size=3), rng.uniform(-1, 1, 3)
            scene = GaussianScene(mean, ls, rng.normal(size=4), (0.0,), ("c0",))
            x = rng.normal(size=3)
            q = quat_normalize(rng.normal(size=4))
            R = quat_to_rot(q)
            turned = GaussianScene(R @ mean, ls, quat_multiply(q, scene.rotations[0]), (0.0,), ("c0",))
            want = class_field_at(scene, x, UNCUT)[0]
            assert class_field_at(turned, R @ x, UNCUT)[0] == pytest.approx(want, abs=1e-12)


class TestClassField:
    def test_empty_scene(self, cfg3):
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        assert np.array_equal(class_field_at(scene, (0, 0, 0), cfg3), np.zeros(3))

    def test_softmax_weights_at_mean(self, cfg3):
        # independent softmax: exp(2)=7.38905609893065, p = (e0,e0,e2)/(2+e2)
        e2 = 7.38905609893065
        p = np.array([1.0, 1.0, e2]) / (2.0 + e2)
        scene = GaussianScene((1, 1, 1), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 2.0), ("a", "b", "c"))
        F = class_field_at(scene, (1, 1, 1), cfg3)
        assert np.allclose(F, p, atol=1e-12)
        assert F[2] == pytest.approx(0.7870, abs=1e-4)

    def test_additive_over_union(self, rng, cfg3):
        a = random_scene(rng, 5)
        b = random_scene(rng, 7)
        both = GaussianScene(
            np.vstack([a.means, b.means]),
            np.vstack([a.log_scales, b.log_scales]),
            np.vstack([a.rotations, b.rotations]),
            np.vstack([a.logits, b.logits]),
            a.class_names,
        )
        x = rng.uniform(0.5, 3.5, 3)
        assert np.allclose(
            class_field_at(both, x, cfg3),
            class_field_at(a, x, cfg3) + class_field_at(b, x, cfg3),
            rtol=1e-12,
        )

    def test_two_identical_gaussians_double(self, cfg3):
        one = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 2.0), ("a", "b", "c"))
        two = one.take([0, 0])
        assert np.allclose(
            class_field_at(two, (0.3, 0, 0), cfg3), 2 * class_field_at(one, (0.3, 0, 0), cfg3)
        )


class TestLabel:
    def test_empty_scene_is_empty(self, cfg3):
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == EMPTY

    def test_dominant_class_at_mean(self, cfg3):
        scene = GaussianScene((0, 0, 0), (-2, -2, -2), (1, 0, 0, 0), (0.0, 0.0, 4.0), ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == 2

    def test_far_point_is_empty(self, cfg3):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 4.0), ("a", "b", "c"))
        assert label_at(scene, (5.0, 0, 0), cfg3) == EMPTY

    def test_tie_breaks_low_index(self, cfg3):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (1.0, 1.0, 0.0), ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == 0

    def test_deterministic(self, rng, cfg3):
        scene = random_scene(rng, 16)
        x = rng.uniform(0, 4, 3)
        labels = {label_at(scene, x, cfg3) for _ in range(5)}
        assert len(labels) == 1


class TestConfidence:
    def test_uniform(self):
        assert scene_confidences(unit_gaussian(logits=(0, 0, 0, 0)))[0] == pytest.approx(0.25)

    def test_peaked(self):
        # softmax by hand: 1/(1 + 2·e^-10)
        expected = 1.0 / (1.0 + 2.0 * math.exp(-10.0))
        assert scene_confidences(unit_gaussian(logits=(10.0, 0.0, 0.0)))[0] == pytest.approx(expected)
        assert scene_confidences(unit_gaussian(logits=(10.0, 0.0, 0.0)))[0] == pytest.approx(0.99991, abs=1e-5)

    def test_single_class(self):
        assert scene_confidences(unit_gaussian(logits=(3.7,)))[0] == 1.0


def scene_with_confidence_pattern():
    # confidences ~ (high, low, mid, low, mid-high); indices 1 and 3 tie exactly
    logit_rows = [(6.0, 0, 0, 0), (0, 0, 0, 0), (1.5, 0, 0, 0), (0, 0, 0, 0), (3.0, 0, 0, 0)]
    means = [(i, 0, 0) for i in range(5)]
    return GaussianScene(means, np.zeros((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)), logit_rows, ("a", "b", "c", "d"))


class TestPrune:
    def test_noop(self, rng):
        scene = random_scene(rng, 9)
        pruned, survivors = prune(scene, 0.0)
        assert np.array_equal(pruned.means, scene.means)
        assert np.array_equal(survivors, np.arange(9))

    def test_table5_count(self):
        n = 25600
        kept = math.ceil((1 - 0.40) * n)
        assert kept == 15360
        rng = np.random.default_rng(0)
        scene = random_scene(rng, 256)
        pruned, _ = prune(scene, 0.40)
        assert len(pruned) == math.ceil(0.6 * 256)

    def test_hand_ordering(self):
        # sort by (confidence desc, index asc) keeps {0, 2, 4} at fraction 0.4
        scene = scene_with_confidence_pattern()
        pruned, survivors = prune(scene, 0.4)
        assert survivors.tolist() == [0, 2, 4]
        assert np.array_equal(pruned.means, scene.means[[0, 2, 4]])

    def test_tie_retains_lower_index(self):
        scene = scene_with_confidence_pattern()
        # keep 4 of 5: the tie between indices 1 and 3 resolves to 1
        _, survivors = prune(scene, 0.2)
        assert survivors.tolist() == [0, 1, 2, 4]

    @given(st.integers(0, 40), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_count_formula_and_idempotence(self, n, fraction):
        rng = np.random.default_rng(n)
        scene = random_scene(rng, n) if n else GaussianScene([], [], [], [], ("c0", "c1", "c2"))
        pruned, survivors = prune(scene, fraction)
        assert len(pruned) == math.ceil((1 - fraction) * n)
        again, again_idx = prune(pruned, 0.0)
        assert np.array_equal(again.means, pruned.means)
        assert np.all(np.diff(survivors) > 0) or len(survivors) <= 1


class TestInvariants:
    def test_scene_confidences_order(self, rng):
        scene = random_scene(rng, 12)
        # one softmax per row, by hand
        e = np.exp(scene.logits)
        assert np.allclose(scene_confidences(scene), [np.max(row) / np.sum(row) for row in e])

    def test_log_scale_clamp(self):
        scene = GaussianScene((0, 0, 0), (-100, 0, 100), (1, 0, 0, 0), (0.0,), ("a",))
        assert np.all(np.exp(scene.log_scales) >= 1e-4)
        assert np.all(np.exp(scene.log_scales) <= 1e3)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("component", range(3))
    def test_log_scales_must_be_finite_before_the_clamp(self, bad, component):
        ls = [0.0, 0.0, 0.0]
        ls[component] = bad
        with pytest.raises(ValueError, match="log_scales must be finite"):
            GaussianScene((0, 0, 0), ls, (1, 0, 0, 0), (0.0,), ("a",))

    def test_rotation_normalized(self):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (2, 0, 0, 0), (0.0,), ("a",))
        assert np.linalg.norm(scene.rotations[0]) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_whose_norm_overflows_is_refused(self):
        # each component is finite, but the sum of squares is not
        with pytest.raises(ValueError, match="quaternion norm overflows"):
            GaussianScene(np.zeros((2, 3)), np.zeros((2, 3)), [(1, 0, 0, 0), (1e300, 1e300, 0, 0)], np.zeros((2, 1)), ("a",))

    @pytest.mark.parametrize(
        "quat, unit",
        [((1e154, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, -3e153, 4e153), (0, 0, -0.6, 0.8))],
    )
    def test_large_rotation_whose_norm_is_finite_normalises(self, quat, unit):
        # the sum of squares is near the top of float64's range but does not overflow
        scene = GaussianScene((0, 0, 0), (0, 0, 0), quat, (0.0,), ("a",))
        np.testing.assert_allclose(scene.rotations[0], unit, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("component", range(4))
    def test_rotation_must_be_finite(self, bad, component):
        q = [1.0, 0.0, 0.0, 0.0]
        q[component] = bad
        with pytest.raises(ValueError, match="rotations must be finite"):
            GaussianScene(np.zeros((2, 3)), np.zeros((2, 3)), [(1, 0, 0, 0), q], np.zeros((2, 1)), ("a",))

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0), ("a", "b", "c"))

    @pytest.mark.parametrize("names", [(None,), ([1],), (1,), ("a", "a"), ("a", 2)])
    def test_class_names_must_be_distinct_strings(self, names):
        with pytest.raises(ValueError, match="class_names"):
            GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, len(names))), names)

    def test_dynamic_ids_validated(self):
        with pytest.raises(ValueError):
            ClassConfig(3, dynamic_class_ids={5})

    def test_class_count_capped_below_empty_label(self):
        ClassConfig(255)
        with pytest.raises(ValueError, match="255"):
            ClassConfig(256)
        names = tuple(f"c{i}" for i in range(256))
        GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, 255)), names[:255])
        with pytest.raises(ValueError, match="255"):
            GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, 256)), names)


    @pytest.mark.parametrize(
        "quat",
        [(1e-162, 3e-163, 0, 0), (1e-158, 2e-158, -3e-158, 0), (1e-160, 0, 0, 1e-160), (0, 0, 0, 5e-324)],
    )
    def test_rotation_whose_squared_norm_underflows_normalises(self, quat):
        # every component is finite and one is nonzero, but the sum of squares leaves float64's normal range
        scene = GaussianScene((0, 0, 0), (0, 0, 0), quat, (0.0,), ("a",))
        q = np.array(quat) / np.max(np.abs(quat))
        np.testing.assert_allclose(scene.rotations[0], q / np.linalg.norm(q), rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(scene.rotations[0]) - 1.0) <= 1e-15
        assert np.array_equal(quat_normalize(scene.rotations), scene.rotations)

    def test_zero_rotation_is_refused(self):
        with pytest.raises(ValueError, match="zero-norm quaternion"):
            GaussianScene(np.zeros((2, 3)), np.zeros((2, 3)), [(1, 0, 0, 0), (0, 0, 0, 0)], np.zeros((2, 1)), ("a",))


def _normalize_without_rescaling(q):
    """quat_normalize as it was before rows whose sum of squares underflows were rescaled, frozen."""
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(np.abs(n - 1.0) < 1e-12, q, q / n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: max(map(abs, v)) > 1e-3),
    exponent=st.floats(-300.0, 150.0),
)
def test_quat_normalize_is_bit_idempotent(q, exponent):
    """A normalized quaternion is unit and passes through quat_normalize with every bit kept.

    A row whose sum of squares stays in float64's normal range keeps the bits it had
    before underflowing rows were rescaled.
    """
    raw = np.array(q) * 10.0**exponent
    once = quat_normalize(raw)
    assert np.array_equal(quat_normalize(once), once)
    assert abs(np.linalg.norm(once) - 1.0) <= 1e-15
    if np.linalg.norm(raw) >= 2.0**-511:
        assert np.array_equal(once, _normalize_without_rescaling(raw))


ARRAYS = ("means", "log_scales", "rotations", "logits")
# each fault spoils one array; None lets it spoil any array that is given
FAULT_TARGETS = {
    "non-finite": None,
    "leading dimension": None,
    "logits width": "logits",
    "unnormalised": "rotations",
    "log-scale range": "log_scales",
    None: None,
}


def _spoil(a, fault, rng):
    a = np.array(a)
    if fault == "non-finite" and a.size:
        a.flat[rng.integers(a.size)] = rng.choice([math.nan, math.inf, -math.inf])
    elif fault == "leading dimension":
        a = np.concatenate([a, np.ones((1, a.shape[1]))])
    elif fault == "logits width":
        a = np.concatenate([a, np.zeros((a.shape[0], 1))], axis=1)
    elif fault == "unnormalised":
        a = a * 10.0 ** rng.uniform(-200, 200, (a.shape[0], 1))
    elif fault == "log-scale range" and a.size:
        a.flat[rng.integers(a.size)] = rng.choice([-40.0, 40.0])
    return a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(0, 6),
    num_classes=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    names=st.sets(st.sampled_from(ARRAYS), min_size=1),
    fault=st.sampled_from(list(FAULT_TARGETS)),
)
def test_with_arrays_equals_the_constructor(n, num_classes, seed, names, fault):
    """with_arrays checks only the arrays it is given, yet builds what the constructor builds from the merged arrays."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, num_classes)
    fresh = random_scene(rng, n, num_classes)
    names = sorted(names | {FAULT_TARGETS[fault]} - {None}, key=ARRAYS.index)
    spoilt = names[rng.integers(len(names))] if FAULT_TARGETS[fault] is None else FAULT_TARGETS[fault]
    given = {k: _spoil(getattr(fresh, k), fault, rng) if k == spoilt else np.array(getattr(fresh, k)) for k in names}
    merged = {k: given.get(k, getattr(scene, k)) for k in ARRAYS}
    before = {k: getattr(scene, k).copy() for k in ARRAYS}
    try:
        want = GaussianScene(**merged, class_names=scene.class_names)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            scene.with_arrays(**given)
        assert str(got.value) == str(e)
        return
    got = scene.with_arrays(**given)
    assert got.class_names == want.class_names
    for k in ARRAYS:
        assert np.array_equal(getattr(got, k), getattr(want, k))
        assert not getattr(got, k).flags.writeable
        assert np.array_equal(getattr(scene, k), before[k])  # the source scene is untouched


def test_a_scene_keeps_its_own_copy_of_every_array(rng):
    """A stored array cannot change after its check: the caller's array stays writable and shares no memory with it."""
    arrays = {k: np.array(getattr(random_scene(rng, 4), k)) for k in ARRAYS}
    scene = GaussianScene(**arrays, class_names=("c0", "c1", "c2"))
    derived = random_scene(rng, 4).with_arrays(**arrays)
    for k, a in arrays.items():
        assert a.flags.writeable
        assert not np.shares_memory(getattr(scene, k), a) and not np.shares_memory(getattr(derived, k), a)


def test_only_rotations_that_enter_a_scene_are_normalised(monkeypatch, rng):
    """Flowing a scene keeps its stored rotations; the ego transform normalises its product once."""
    scene = random_scene(rng, 8)
    calls = []
    normalize = core.quat_normalize
    monkeypatch.setattr(core, "quat_normalize", lambda q: calls.append(len(q)) or normalize(q))
    moved = apply_flow(scene, rng.normal(size=(8, 3)))
    scene.with_arrays(means=scene.means + 1.0)
    assert calls == []
    assert moved.rotations is scene.rotations
    ego_transform(scene, Waypoint(1.0, -2.0, 0.4))
    assert calls == [8]


SRC = Path(__file__).resolve().parents[1] / "src" / "gaussworld"


def _class_config_settings(path):
    """Dataclass fields and function parameters named after ClassConfig's ε or κ."""
    names = ("empty_evidence", "mahalanobis_cutoff")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.arg) and node.arg in names:
            yield f"{path.name}:{node.lineno} parameter {node.arg}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) in names:
                    yield f"{path.name}:{item.lineno} field {node.name}.{item.target.id}"


def _ego_footprint_literals(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value in (4.6, 1.9):
            yield f"{path.name}:{node.lineno} {node.value!r}"


def test_class_config_owns_its_defaults():
    """ε and κ are settable on ClassConfig only; every other module reads them from a ClassConfig."""
    found = [f for path in sorted(SRC.glob("*.py")) if path.name != "core.py" for f in _class_config_settings(path)]
    assert found == []


def _quat_normalize_calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and "quat_normalize" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield f"{path.name}:{node.lineno}"


def test_core_owns_quaternion_normalisation():
    """Rotations are normalised where they enter a scene; no other module calls quat_normalize."""
    found = [f for path in sorted(SRC.glob("*.py")) if path.name != "core.py" for f in _quat_normalize_calls(path)]
    assert found == []
    assert list(_quat_normalize_calls(SRC / "core.py")) != []


def test_metrics_owns_the_ego_footprint():
    """The 4.6 x 1.9 m ego box is written once, as metrics.EGO_FOOTPRINT."""
    found = [f for path in sorted(SRC.glob("*.py")) if path.name != "metrics.py" for f in _ego_footprint_literals(path)]
    assert found == []
    assert list(_ego_footprint_literals(SRC / "metrics.py")) != []
