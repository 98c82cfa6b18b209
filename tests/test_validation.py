"""Tests for the vendor/user validation scheme and the detection experiments."""

import numpy as np
import pytest

from repro.attacks import RandomPerturbation, SingleBiasAttack
from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.engine import Engine
from repro.testgen import TrainingSetSelector
from repro.utils.config import DetectionConfig
from repro.validation import (
    DetectionExperiment,
    IPUser,
    IPVendor,
    ValidationPackage,
    compare_outputs,
    default_attack_factories,
    replay_trials,
    validate_ip,
)


@pytest.fixture(scope="module")
def vendor_package(trained_cnn, digit_dataset):
    vendor = IPVendor(trained_cnn, digit_dataset)
    generator = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=30, rng=0)
    return vendor.build_package(generator.generate(10))


class TestValidationPackage:
    def test_construction_and_labels(self, vendor_package):
        assert vendor_package.num_tests == 10
        assert vendor_package.expected_labels.shape == (10,)
        np.testing.assert_array_equal(
            vendor_package.expected_labels,
            np.argmax(vendor_package.expected_outputs, axis=1),
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((2, 4)), expected_outputs=np.zeros((3, 5)))
        with pytest.raises(ValueError):
            ValidationPackage(
                tests=np.zeros((2, 4)), expected_outputs=np.zeros((2, 5)), output_atol=-1
            )
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((2, 4)), expected_outputs=np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_expected_outputs_rejected(self, value):
        outputs = np.zeros((2, 5))
        outputs[1, 3] = value
        with pytest.raises(ValueError, match="finite"):
            ValidationPackage(tests=np.zeros((2, 4)), expected_outputs=outputs)

    def test_subset(self, vendor_package):
        sub = vendor_package.subset(4)
        assert sub.num_tests == 4
        with pytest.raises(ValueError):
            vendor_package.subset(0)
        with pytest.raises(ValueError):
            vendor_package.subset(99)

    def test_digest_changes_when_contents_change(self, vendor_package):
        modified = ValidationPackage(
            tests=vendor_package.tests + 0.01,
            expected_outputs=vendor_package.expected_outputs,
        )
        assert modified.digest() != vendor_package.digest()

    def test_save_load_round_trip(self, vendor_package, tmp_path):
        path = vendor_package.save(tmp_path / "pkg.npz")
        loaded = ValidationPackage.load(path)
        np.testing.assert_allclose(loaded.tests, vendor_package.tests)
        np.testing.assert_allclose(loaded.expected_outputs, vendor_package.expected_outputs)
        assert loaded.metadata["num_tests"] == 10

    def test_load_detects_tampering(self, vendor_package, tmp_path):
        path = vendor_package.save(tmp_path / "pkg.npz")
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        arrays["expected_outputs"] = arrays["expected_outputs"] + 1.0
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="integrity"):
            ValidationPackage.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ValidationPackage.load(tmp_path / "nope.npz")


class TestVendor:
    def test_release_end_to_end(self, trained_cnn, digit_dataset):
        vendor = IPVendor(trained_cnn, digit_dataset)
        package = vendor.release(num_tests=6, candidate_pool=20, rng=0, max_updates=10)
        assert package.num_tests == 6
        assert package.metadata["generator"] == "combined"
        assert 0.0 < package.metadata["validation_coverage"] <= 1.0

    def test_build_package_requires_tests(self, trained_cnn, digit_dataset):
        vendor = IPVendor(trained_cnn, digit_dataset)
        with pytest.raises(ValueError):
            vendor.build_package(np.zeros((0, 1, 12, 12)))

    def test_default_generator_requires_training_set(self, trained_cnn):
        vendor = IPVendor(trained_cnn)
        with pytest.raises(ValueError):
            vendor.default_generator()

    def test_unbuilt_model_rejected(self):
        from repro.nn.layers import Dense
        from repro.nn.model import Sequential

        with pytest.raises(ValueError):
            IPVendor(Sequential([Dense(3)]))


class TestUser:
    def test_clean_ip_passes(self, trained_cnn, vendor_package):
        report = validate_ip(trained_cnn, vendor_package)
        assert report.passed
        assert not report.detected
        assert report.num_mismatched == 0
        assert "SECURE" in report.summary()

    def test_perturbed_ip_detected(self, trained_cnn, vendor_package):
        tampered = SingleBiasAttack(magnitude=20.0, rng=0).apply(trained_cnn).model
        report = validate_ip(tampered, vendor_package)
        assert report.detected
        assert report.num_mismatched > 0
        assert "TAMPERED" in report.summary()

    def test_callable_black_box_interface(self, trained_cnn, vendor_package):
        report = validate_ip(lambda x: trained_cnn.predict(x), vendor_package)
        assert report.passed

    def test_output_shape_change_is_detected(self, vendor_package):
        report = validate_ip(lambda x: np.zeros((x.shape[0], 3)), vendor_package)
        assert report.detected
        assert report.max_output_deviation == np.inf

    def test_tolerance_allows_tiny_numeric_noise(self, trained_cnn, vendor_package):
        def noisy_ip(x):
            return trained_cnn.predict(x) + 1e-9

        report = IPUser(vendor_package).validate(noisy_ip)
        assert report.passed

    def test_empty_package_rejected(self):
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((0, 2)), expected_outputs=np.zeros((0, 3)))


class InfWeightAttack(ParameterAttack):
    """Sets the first weight of the model to a non-finite value."""

    attack_name = "inf-weight"

    def __init__(self, value: float = np.inf) -> None:
        super().__init__(rng=0)
        self.value = value

    def _perturb(self, model):
        weight = model.parameters()[0].value
        delta = self.value - weight.flat[0]
        weight.flat[0] = self.value
        return PerturbationRecord("inf-weight", np.array([0]), np.array([delta]))


class TestCompareOutputs:
    def test_rule(self):
        expected = np.zeros((3, 2))
        observed = np.array([[0.0, 1e-7], [0.0, 1e-3], [np.nan, 0.0]])
        deviations, mismatched = compare_outputs(observed, expected, 1e-6)
        assert deviations.tolist() == [1e-7, 1e-3, np.inf]
        assert mismatched.tolist() == [False, True, True]

    def test_wrong_shape_mismatches_every_test(self):
        deviations, mismatched = compare_outputs(np.zeros((3, 4)), np.zeros((3, 2)), 1.0)
        assert deviations.tolist() == [np.inf] * 3
        assert mismatched.all()
        # one copy answering with an extra axis is a wrong shape, not a stack
        _, mismatched = compare_outputs(np.zeros((1, 3, 2)), np.zeros((3, 2)), 1.0)
        assert mismatched.shape == (3,) and mismatched.all()

    def test_stack_broadcasts_over_trials(self):
        expected = np.zeros((3, 2))
        observed = np.zeros((2, 3, 2))
        observed[1, 2, 0] = np.inf
        deviations, mismatched = compare_outputs(observed, expected[None], 1e-6)
        assert deviations.shape == mismatched.shape == (2, 3)
        assert mismatched.tolist() == [[False, False, False], [False, False, True]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteSuspect:
    """A suspect whose outputs are NaN or inf must never pass validation."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_callable_detected(self, value, vendor_package):
        def suspect(x):
            return np.full(vendor_package.expected_outputs.shape, value)

        report = validate_ip(suspect, vendor_package)
        assert report.detected
        assert report.num_mismatched == vendor_package.num_tests
        assert report.max_output_deviation == np.inf

    def test_inf_weight_model_detected(self, trained_cnn, vendor_package):
        tampered = InfWeightAttack().apply(trained_cnn).model
        assert not np.isfinite(tampered.predict(vendor_package.tests)).all()
        report = validate_ip(tampered, vendor_package)
        assert report.detected
        assert report.max_output_deviation == np.inf

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_replay_trials_flags_non_finite_copies(self, value, trained_cnn, vendor_package):
        mismatches, records = replay_trials(
            Engine(trained_cnn, cache=False),
            [SingleBiasAttack(magnitude=20.0, rng=0), InfWeightAttack(value)],
            vendor_package.tests,
            vendor_package.expected_outputs,
            vendor_package.output_atol,
        )
        sba_copy = SingleBiasAttack(magnitude=20.0, rng=0).apply(trained_cnn).model
        sba_report = validate_ip(sba_copy, vendor_package)
        assert np.flatnonzero(mismatches[0]).tolist() == sba_report.mismatched_indices
        assert mismatches[1].all()
        assert [r.attack for r in records] == ["sba", "inf-weight"]


class TestDetectionExperiment:
    def test_detection_rates_and_structure(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=8, test_budgets=(2, 5, 10), attacks=("sba", "random"), seed=0)
        factories = default_attack_factories(digit_dataset.images[:10])
        experiment = DetectionExperiment(
            trained_cnn, {"proposed": vendor_package}, factories, config
        )
        table = experiment.run()
        assert set(table.attacks()) == {"sba", "random"}
        assert table.budgets() == [2, 5, 10]
        for attack in table.attacks():
            rates = [table.rate("proposed", attack, n) for n in table.budgets()]
            assert all(0.0 <= r <= 1.0 for r in rates)
            # more tests can only help (paired trials make this exact)
            assert rates == sorted(rates)

    def test_missing_factory_rejected(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(2,), attacks=("gda",))
        with pytest.raises(ValueError, match="factory"):
            DetectionExperiment(trained_cnn, {"p": vendor_package}, {}, config)

    def test_package_too_small_rejected(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(50,), attacks=("random",))
        factories = default_attack_factories(digit_dataset.images[:4])
        with pytest.raises(ValueError, match="budget"):
            DetectionExperiment(trained_cnn, {"p": vendor_package}, factories, config)

    def test_table_lookup_missing_cell(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(2,), attacks=("random",))
        factories = default_attack_factories(digit_dataset.images[:4])
        table = DetectionExperiment(
            trained_cnn, {"p": vendor_package}, factories, config
        ).run()
        with pytest.raises(KeyError):
            table.rate("p", "sba", 2)
        rows = table.as_rows()
        assert rows and {"method", "attack", "num_tests", "detection_rate"} <= set(rows[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(trials=0).validate()
        with pytest.raises(ValueError):
            DetectionConfig(test_budgets=()).validate()
        with pytest.raises(ValueError):
            DetectionConfig(attacks=("voodoo",)).validate()
