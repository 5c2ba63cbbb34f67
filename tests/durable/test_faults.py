"""Unit tests for the crashpoint registry (``repro.durable.faults``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.durable import faults
from repro.durable.faults import CRASHPOINTS, InjectedCrash

#: The checkout this file belongs to: the children run its ``src/``.
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.reset()
    yield
    faults.reset()


class TestArming:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown crashpoint"):
            faults.arm("wal.no_such_point")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            faults.arm("wal.pre_append", action="explode")

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError, match="after"):
            faults.arm("wal.pre_append", after=-1)

    def test_every_crashpoint_is_armable(self):
        for name in CRASHPOINTS:
            faults.arm(name)
            faults.disarm(name)

    def test_unarmed_fire_is_a_noop(self):
        for name in CRASHPOINTS:
            faults.fire(name)
        assert faults.fire_counts() == {}


class TestFiring:
    def test_armed_fire_raises_and_disarms(self):
        faults.arm("wal.pre_append")
        with pytest.raises(InjectedCrash, match="wal.pre_append"):
            faults.fire("wal.pre_append")
        # One-shot: the second fire passes.
        faults.fire("wal.pre_append")
        assert faults.fire_counts() == {"wal.pre_append": 1}

    def test_after_skips_the_first_firings(self):
        faults.arm("checkpoint.mid_heap", after=2)
        faults.fire("checkpoint.mid_heap")
        faults.fire("checkpoint.mid_heap")
        with pytest.raises(InjectedCrash):
            faults.fire("checkpoint.mid_heap")

    def test_other_points_unaffected(self):
        faults.arm("wal.pre_append")
        faults.fire("wal.post_append")  # different point: no crash

    def test_armed_contextmanager_disarms_on_exit(self):
        with faults.armed("recovery.mid_replay"):
            with pytest.raises(InjectedCrash):
                faults.fire("recovery.mid_replay")
        faults.fire("recovery.mid_replay")

    def test_reset_clears_armed_and_counts(self):
        faults.arm("wal.pre_fsync")
        faults.reset()
        faults.fire("wal.pre_fsync")
        assert faults.fire_counts() == {}


class TestEnvArming:
    def test_env_spec_arms_at_import(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(
            "from repro.durable import faults\n"
            "try:\n"
            "    faults.fire('wal.pre_append')\n"
            "except faults.InjectedCrash:\n"
            "    print('CRASHED')\n"
        )
        env = dict(os.environ)
        env["REPRO_CRASHPOINT"] = "wal.pre_append"
        env["PYTHONPATH"] = str(ROOT / "src")
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=60,
        )
        assert "CRASHED" in out.stdout

    def test_env_spec_exit_action(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(
            "from repro.durable import faults\n"
            "faults.fire('wal.post_append')\n"
            "print('UNREACHABLE')\n"
        )
        env = dict(os.environ)
        env["REPRO_CRASHPOINT"] = "wal.post_append:exit"
        env["PYTHONPATH"] = str(ROOT / "src")
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=60,
        )
        assert out.returncode == faults.KILLED_STATUS
        assert "UNREACHABLE" not in out.stdout


class TestHarness:
    def test_kills_after_marker_count(self, tmp_path):
        script = tmp_path / "writer.py"
        script.write_text(
            "import sys, time\n"
            "for i in range(1000):\n"
            "    print(f'ACK {i}', flush=True)\n"
            "    time.sleep(0.005)\n"
        )
        result = faults.run_until_marker_then_kill(
            [sys.executable, str(script)], marker="ACK", count=3
        )
        assert result.killed
        assert result.returncode == -9
        assert result.markers_seen >= 3
        assert any("ACK 2" in line for line in result.lines)

    def test_clean_exit_before_marker(self, tmp_path):
        script = tmp_path / "writer.py"
        script.write_text("print('done')\n")
        result = faults.run_until_marker_then_kill(
            [sys.executable, str(script)], marker="ACK", count=1
        )
        assert not result.killed
        assert result.returncode == 0
        assert result.markers_seen == 0
