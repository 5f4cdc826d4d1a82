"""The central boolean/numeric env-knob parsing matrix.

Every runtime ``REPRO_*`` knob is numeric and goes through
:mod:`repro.envutil`; the boolean test-tier flags go through
``tier_flags.env_flag``.  Each grammar is tested once here instead of per
call site.  The drift this fixes: the old per-site ``not in ("", "0")``
idiom parsed ``false``/``no``/``off`` as *truthy*.
"""

import pytest

from repro.envutil import env_float, env_int
from tier_flags import env_flag
from repro.errors import ConfigurationError, ReproError, SimulationError

FLAG = "REPRO_TEST_FLAG"


@pytest.mark.parametrize(
    "raw", ["1", "true", "TRUE", "True", "yes", "on", " 1 ", "ON"]
)
def test_env_flag_truthy(monkeypatch, raw):
    monkeypatch.setenv(FLAG, raw)
    assert env_flag(FLAG) is True


@pytest.mark.parametrize(
    "raw", ["", "0", "false", "FALSE", "no", "off", " 0 ", "Off"]
)
def test_env_flag_falsy(monkeypatch, raw):
    monkeypatch.setenv(FLAG, raw)
    assert env_flag(FLAG) is False


def test_env_flag_unset_is_false(monkeypatch):
    monkeypatch.delenv(FLAG, raising=False)
    assert env_flag(FLAG) is False


@pytest.mark.parametrize("raw", ["2", "maybe", "yes!", "enable"])
def test_env_flag_rejects_garbage(monkeypatch, raw):
    """A typo'd value must never silently flip a behaviour switch."""
    monkeypatch.setenv(FLAG, raw)
    with pytest.raises(ConfigurationError, match=FLAG):
        env_flag(FLAG)


NUM = "REPRO_TEST_NUMBER"


def test_env_int_default_and_parse(monkeypatch):
    monkeypatch.delenv(NUM, raising=False)
    assert env_int(NUM, 7) == 7
    monkeypatch.setenv(NUM, " 42 ")
    assert env_int(NUM, 7) == 42


@pytest.mark.parametrize("raw", ["", "abc", "4.2"])
def test_env_int_rejects_malformed(monkeypatch, raw):
    monkeypatch.setenv(NUM, raw)
    with pytest.raises(ConfigurationError, match=NUM):
        env_int(NUM, 7)


def test_env_int_enforces_minimum_with_custom_error(monkeypatch):
    monkeypatch.setenv(NUM, "0")
    with pytest.raises(SimulationError, match=NUM) as excinfo:
        env_int(NUM, 7, minimum=1, error=SimulationError)
    assert ">= 1" in str(excinfo.value)  # the accepted range is named


def test_env_float_default_parse_and_bounds(monkeypatch):
    monkeypatch.delenv(NUM, raising=False)
    assert env_float(NUM, 1.5) == 1.5
    monkeypatch.setenv(NUM, "2.25")
    assert env_float(NUM, 1.5) == 2.25
    for raw in ("", "abc", "inf", "nan", "0", "-1"):
        monkeypatch.setenv(NUM, raw)
        with pytest.raises(ReproError, match=NUM):
            env_float(NUM, 1.5, exclusive_minimum=0.0)


# ---------------------------------------------------------------------------
# The tcp executor's knobs (repro.sim.tcpexec): routed through the same
# parsers, failing as SimulationError with the variable and range named.
# ---------------------------------------------------------------------------


def test_tcp_timeout_default_and_parse(monkeypatch):
    from repro.sim.tcpexec import TCP_TIMEOUT_ENV, tcp_timeout_seconds

    monkeypatch.delenv(TCP_TIMEOUT_ENV, raising=False)
    assert tcp_timeout_seconds() == 60.0
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "3.5")
    assert tcp_timeout_seconds() == 3.5


@pytest.mark.parametrize("raw", ["", "abc", "nan", "inf", "0", "-2"])
def test_tcp_timeout_rejects_malformed_and_out_of_range(monkeypatch, raw):
    from repro.sim.tcpexec import TCP_TIMEOUT_ENV, tcp_timeout_seconds

    monkeypatch.setenv(TCP_TIMEOUT_ENV, raw)
    with pytest.raises(SimulationError, match=TCP_TIMEOUT_ENV) as excinfo:
        tcp_timeout_seconds()
    assert "> 0" in str(excinfo.value) or "expected" in str(excinfo.value)


def test_tcp_retries_default_and_parse(monkeypatch):
    from repro.sim.tcpexec import TCP_RETRIES_ENV, tcp_retries

    monkeypatch.delenv(TCP_RETRIES_ENV, raising=False)
    assert tcp_retries() == 8
    monkeypatch.setenv(TCP_RETRIES_ENV, " 3 ")
    assert tcp_retries() == 3


@pytest.mark.parametrize("raw", ["", "abc", "1.5", "0", "-1"])
def test_tcp_retries_rejects_malformed_and_out_of_range(monkeypatch, raw):
    from repro.sim.tcpexec import TCP_RETRIES_ENV, tcp_retries

    monkeypatch.setenv(TCP_RETRIES_ENV, raw)
    with pytest.raises(SimulationError, match=TCP_RETRIES_ENV) as excinfo:
        tcp_retries()
    assert ">= 1" in str(excinfo.value) or "expected" in str(excinfo.value)


def test_tcp_max_respawns_default_and_parse(monkeypatch):
    from repro.sim.tcpexec import TCP_MAX_RESPAWNS_ENV, tcp_max_respawns

    monkeypatch.delenv(TCP_MAX_RESPAWNS_ENV, raising=False)
    assert tcp_max_respawns() == 3
    monkeypatch.setenv(TCP_MAX_RESPAWNS_ENV, "0")  # 0 disables recovery
    assert tcp_max_respawns() == 0
    monkeypatch.setenv(TCP_MAX_RESPAWNS_ENV, " 7 ")
    assert tcp_max_respawns() == 7


@pytest.mark.parametrize("raw", ["", "abc", "1.5", "-1"])
def test_tcp_max_respawns_rejects_malformed_and_out_of_range(
    monkeypatch, raw
):
    from repro.sim.tcpexec import TCP_MAX_RESPAWNS_ENV, tcp_max_respawns

    monkeypatch.setenv(TCP_MAX_RESPAWNS_ENV, raw)
    with pytest.raises(SimulationError, match=TCP_MAX_RESPAWNS_ENV) as excinfo:
        tcp_max_respawns()
    assert ">= 0" in str(excinfo.value) or "expected" in str(excinfo.value)
