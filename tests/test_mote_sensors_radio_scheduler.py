"""Tests for sensor processes, the radio log, and the task scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MoteError
from repro.mote import (
    AR1Sensor,
    BurstySensor,
    ConstantSensor,
    DiurnalSensor,
    IIDSensor,
    Radio,
    Scheduler,
    SensorSuite,
    Task,
    UniformSensor,
)
from repro.mote.sensors import ADC_MAX


def reads(sensor, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([sensor.read(rng) for _ in range(n)])


class TestSensors:
    def test_constant_sensor(self):
        assert set(reads(ConstantSensor(400), 10)) == {400}

    def test_constant_clamps_to_adc_range(self):
        assert ConstantSensor(5000).value == ADC_MAX
        assert ConstantSensor(-5).value == 0

    def test_uniform_bounds_and_mean(self):
        xs = reads(UniformSensor(100, 900), 5000)
        assert xs.min() >= 100 and xs.max() <= 900
        assert xs.mean() == pytest.approx(500, abs=15)

    def test_uniform_threshold_probability(self):
        xs = reads(UniformSensor(), 20_000)
        # P(v > 767) with v ~ U{0..1023} = 256/1024 = 0.25.
        assert np.mean(xs > 767) == pytest.approx(0.25, abs=0.02)

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(MoteError):
            UniformSensor(500, 100)

    def test_iid_mean_and_spread(self):
        xs = reads(IIDSensor(500, 50), 5000)
        assert xs.mean() == pytest.approx(500, abs=5)
        assert xs.std() == pytest.approx(50, abs=5)

    def test_iid_clamps_to_adc(self):
        xs = reads(IIDSensor(1000, 300), 2000)
        assert xs.max() <= ADC_MAX and xs.min() >= 0

    def test_ar1_is_autocorrelated(self):
        xs = reads(AR1Sensor(500, 80, rho=0.95), 4000).astype(float)
        lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert lag1 > 0.8

    def test_ar1_reset_restarts_process(self):
        s = AR1Sensor(500, 80, rho=0.9)
        reads(s, 10)
        s.reset()
        assert s._state is None

    def test_ar1_rejects_bad_rho(self):
        with pytest.raises(MoteError):
            AR1Sensor(500, 80, rho=1.0)

    def test_bursty_switches_regimes(self):
        s = BurstySensor(300, 900, 20, p_enter=0.3, p_exit=0.3)
        xs = reads(s, 4000)
        low = np.mean(xs < 600)
        assert 0.2 < low < 0.8  # spends real time in both regimes

    def test_bursty_reset(self):
        s = BurstySensor(300, 900, 20, p_enter=1.0, p_exit=0.0)
        reads(s, 5)
        assert s._bursting
        s.reset()
        assert not s._bursting

    def test_diurnal_mean_drifts(self):
        s = DiurnalSensor(500, 200, period_reads=100, std=0.0)
        xs = reads(s, 100).astype(float)
        assert xs.max() > 650 and xs.min() < 350

    def test_diurnal_is_periodic(self):
        s = DiurnalSensor(500, 100, period_reads=50, std=0.0)
        xs = reads(s, 100)
        assert np.array_equal(xs[:50], xs[50:])


class TestSensorSuite:
    def test_read_routes_by_channel(self):
        suite = SensorSuite({"a": ConstantSensor(1), "b": ConstantSensor(2)}, rng=0)
        assert suite.read("a") == 1
        assert suite.read("b") == 2
        assert suite.read_count == 2

    def test_unknown_channel_lists_known(self):
        suite = SensorSuite({"a": ConstantSensor(1)}, rng=0)
        with pytest.raises(MoteError, match="known: a"):
            suite.read("zzz")

    def test_empty_suite_rejected(self):
        with pytest.raises(MoteError):
            SensorSuite({})

    def test_reset_clears_state_and_count(self):
        suite = SensorSuite({"a": AR1Sensor(500, 50, 0.9)}, rng=0)
        suite.read("a")
        suite.reset()
        assert suite.read_count == 0

    def test_seeded_suites_reproduce(self):
        def run(seed):
            suite = SensorSuite({"a": IIDSensor(500, 100)}, rng=seed)
            return [suite.read("a") for _ in range(10)]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestRadio:
    def test_transmit_logs_packets(self):
        r = Radio()
        r.transmit(7, cycle=100)
        r.transmit(9, cycle=200)
        assert r.packet_count == 2
        assert r.values() == [7, 9]

    def test_clear_keeps_configuration(self):
        r = Radio(bytes_per_packet=50)
        r.transmit(1, 0)
        r.clear()
        assert r.packet_count == 0
        assert r.bytes_per_packet == 50


class TestScheduler:
    def test_one_shot_task_runs_once(self):
        ran = []
        s = Scheduler()
        s.post(Task("once", lambda now: ran.append(now)))
        s.run(max_activations=10)
        assert len(ran) == 1

    def test_periodic_task_reschedules(self):
        ran = []
        s = Scheduler()
        s.post(Task("tick", lambda now: ran.append(now), period_cycles=100))
        s.run(max_activations=5)
        assert ran == [0, 100, 200, 300, 400]

    def test_until_cycles_bound(self):
        ran = []
        s = Scheduler()
        s.post(Task("tick", lambda now: ran.append(now), period_cycles=100))
        s.run(until_cycles=250)
        assert ran == [0, 100, 200]

    def test_earliest_deadline_first(self):
        order = []
        s = Scheduler()
        s.post(Task("late", lambda now: order.append("late")), delay_cycles=50)
        s.post(Task("early", lambda now: order.append("early")), delay_cycles=10)
        s.run(max_activations=2)
        assert order == ["early", "late"]

    def test_task_execution_time_delays_clock(self):
        s = Scheduler()
        s.post(Task("busy", lambda now: s.advance(500)))
        s.post(Task("next", lambda now: None), delay_cycles=100)
        s.run(max_activations=2)
        # The second task fires after the busy task's 500 cycles.
        assert s.now_cycles >= 500

    def test_run_requires_a_bound(self):
        with pytest.raises(MoteError):
            Scheduler().run()

    def test_rejects_bad_delay_and_period(self):
        s = Scheduler()
        with pytest.raises(MoteError):
            s.post(Task("x", lambda now: None), delay_cycles=-1)
        with pytest.raises(MoteError):
            s.post(Task("x", lambda now: None, period_cycles=0))
